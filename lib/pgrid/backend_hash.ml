(* The original per-peer store on {!Store_intf.S}: an ordered string
   map from full encoded key to the (newest-first) list of items stored
   under it, held in a mutable cell so a write to an existing key
   leaves the map alone, plus an {!Idfilter} over the stored
   (key, item_id) pairs so a put of a new item prepends without walking
   the key's list. The reference backend of the differential harness
   (test/test_store.ml), and the default. *)

open Store_intf

module SMap = Map.Make (String)

type t = { mutable map : item list ref SMap.t; mutable count : int; filter : Idfilter.t }

let create () = { map = SMap.empty; count = 0; filter = Idfilter.create () }

(* The rebuild also re-copies every key's list. A put allocates one
   cell per new item, so a key's cells end up spread over the heap in
   insertion order and every scan pays a cache miss per item; fresh
   copies are allocated, and promoted, side by side. Like the rebuild,
   the copy costs O(1) amortized per insertion. *)
let rebuild_filter t =
  Idfilter.rebuild t.filter ~live:t.count (fun add ->
      SMap.iter
        (fun key items ->
          items :=
            List.map
              (fun (i : item) ->
                add (Idfilter.hash key i.item_id);
                i)
              !items)
        t.map)

let rec find_id id = function
  | [] -> None
  | e :: rest -> if String.equal e.item_id id then Some e else find_id id rest

(* Rebuild the prefix up to [old] (found by [find_id]) and share the
   tail behind it. *)
let rec replace_item old item = function
  | [] -> []
  | e :: rest -> if e == old then item :: rest else e :: replace_item old item rest

let rec drop_item old = function
  | [] -> []
  | e :: rest -> if e == old then rest else e :: drop_item old rest

(* A new item goes to the front of its key's list (newest-first); an
   LWW update replaces its item in place. The filter decides whether
   the list is walked at all: only a pair it may hold can be a
   duplicate, so a new item costs O(1) expected plus the map lookup. *)
let put t (item : item) =
  if Idfilter.full t.filter then rebuild_filter t;
  let h = Idfilter.hash item.key item.item_id in
  let items =
    match SMap.find_opt item.key t.map with
    | Some items -> items
    | None ->
      let items = ref [] in
      t.map <- SMap.add item.key items t.map;
      items
  in
  match if Idfilter.mem t.filter h then find_id item.item_id !items else None with
  | None ->
    items := item :: !items;
    t.count <- t.count + 1;
    Idfilter.add t.filter h;
    true
  | Some e when item.version < e.version -> false
  | Some e ->
    items := replace_item e item !items;
    true

(* [true] iff an item was removed. *)
let remove_found t ~key ~item_id =
  match SMap.find_opt key t.map with
  | Some items -> (
    match find_id item_id !items with
    | None -> false
    | Some e ->
      t.count <- t.count - 1;
      (match drop_item e !items with [] -> t.map <- SMap.remove key t.map | rest -> items := rest);
      true)
  | None -> false

let remove t ~key ~item_id = ignore (remove_found t ~key ~item_id)

let find t key = match SMap.find_opt key t.map with Some items -> !items | None -> []

let range t ~lo ~hi =
  let seq = SMap.to_seq_from lo t.map in
  let rec collect acc s =
    match s () with
    | Seq.Nil -> List.rev acc
    | Seq.Cons ((k, items), rest) ->
      if String.compare k hi > 0 then List.rev acc
      else collect (List.rev_append !items acc) rest
  in
  collect [] seq

let with_prefix t prefix =
  let seq = SMap.to_seq_from prefix t.map in
  let plen = String.length prefix in
  let has_prefix k = String.length k >= plen && String.equal (String.sub k 0 plen) prefix in
  let rec collect acc s =
    match s () with
    | Seq.Nil -> List.rev acc
    | Seq.Cons ((k, items), rest) ->
      if has_prefix k then collect (List.rev_append !items acc) rest else List.rev acc
  in
  collect [] seq

let size t = t.count

let iter t f = SMap.iter (fun _ items -> List.iter f !items) t.map

let to_list t =
  SMap.fold (fun _ items acc -> List.rev_append !items acc) t.map [] |> List.rev

let filter_partition t pred =
  (* Removed chunks are collected per key in map (ascending) order, so
     the returned list is key-sorted like every scan. *)
  let chunks = ref [] in
  let map' =
    SMap.filter
      (fun _ items ->
        let keep, out = List.partition pred !items in
        if out <> [] then begin
          chunks := out :: !chunks;
          items := keep
        end;
        keep <> [])
      t.map
  in
  t.map <- map';
  let removed = List.concat (List.rev !chunks) in
  t.count <- t.count - List.length removed;
  removed

let digest t =
  SMap.fold
    (fun key items acc -> List.fold_left (fun acc i -> (key, i.item_id, i.version) :: acc) acc !items)
    t.map []

let clear t =
  t.map <- SMap.empty;
  t.count <- 0;
  Idfilter.clear t.filter

(* Accounting model: one balanced-map node per distinct key (5 words)
   and its mutable list cell (2 words), one list cell per item (3
   words), plus the item record and its three strings, plus the
   membership filter. The map binding's key string is shared with the
   first item's [key] field often enough that we charge key strings on
   the items only. *)
let stats t =
  let bytes = ref (Idfilter.bytes t.filter) in
  SMap.iter
    (fun _ items ->
      bytes := !bytes + 64;
      List.iter
        (fun (i : item) ->
          bytes :=
            !bytes + item_record_bytes + 24 + string_bytes i.key + string_bytes i.item_id
            + string_bytes i.payload)
        !items)
    t.map;
  { bytes = !bytes; triples = t.count }
