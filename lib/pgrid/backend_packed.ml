(* Compressed in-memory store: dictionary-encoded keys + struct-of-
   arrays item columns over a shared byte arena, with a lazily rebuilt
   sorted slot index for scans (after "Compressed Vertical Partitioning
   for Full-In-Memory RDF Management", PAPERS.md).

   What compresses, and why:
   - Index keys repeat heavily (every duplicate of an (attribute,
     value) pair shares one encoded key, Zipf-skewed in practice), so
     keys are interned once into the arena and items carry an 8-byte
     key id instead of a heap string.
   - Item ids and payloads are unique per item, so interning them
     would only add dictionary overhead; they are appended to the same
     arena as raw byte spans — no per-string header word, padding or
     pointer cell, just the bytes plus (offset, length) ints.
   - An item is then a row across flat int columns instead of a boxed
     record + list cell in a balanced map.
   The per-item point index is a per-key singly-linked slot chain
   ([head]/[next] int arrays) rather than a hashtable: zero per-item
   index cells, at the price of O(dups) id lookups — which an
   {!Idfilter} over the stored (key, item_id) pairs spares every put of
   a new item. [stats]
   sums this layout deterministically; test_store.ml asserts it lands
   strictly below {!Backend_hash.stats} on a 100k Zipf load and
   BENCH_store.json records the margin.

   Reads that need key order go through [sorted]: live slots ordered by
   (key ascending, insertion sequence descending — the newest-first
   order of the {!Store_intf} contract), rebuilt lazily on the first
   ordered scan after an insert, then binary-searched for range/prefix
   lookups. Point lookups ([find]) walk the key's chain instead (chains
   are newest-first by construction: inserts push at the head and LWW
   updates stay in place). Removals tombstone and unlink the slot;
   slots compact when tombstones dominate. Arena bytes of overwritten
   payloads and the key dictionary are only reclaimed by {!clear} —
   interned data outliving its items is the classic dictionary-store
   trade-off. *)

open Store_intf

type t = {
  dict : (string, int) Hashtbl.t;  (* key -> key id *)
  mutable arena : Buffer.t;  (* key terms + raw id/payload spans *)
  (* key id -> arena span, and first slot of its chain (-1 = none) *)
  mutable k_off : int array;
  mutable k_len : int array;
  mutable head : int array;
  mutable n_keys : int;
  (* item columns, slot-indexed *)
  mutable key_t : int array;
  mutable id_off : int array;
  mutable id_len : int array;
  mutable pay_off : int array;
  mutable pay_len : int array;
  mutable ver : int array;
  mutable seq : int array;
  mutable next : int array;  (* same-key chain link, -1 = end *)
  mutable live : Bytes.t;
  mutable n_slots : int;  (* slots used, tombstones included *)
  mutable n_live : int;
  mutable next_seq : int;
  mutable sorted : int array;  (* slots by (key asc, seq desc); may hold tombstones *)
  mutable sorted_valid : bool;
  filter : Idfilter.t;
}

let create () =
  {
    dict = Hashtbl.create 64;
    arena = Buffer.create 256;
    k_off = Array.make 64 0;
    k_len = Array.make 64 0;
    head = Array.make 64 (-1);
    n_keys = 0;
    key_t = Array.make 64 0;
    id_off = Array.make 64 0;
    id_len = Array.make 64 0;
    pay_off = Array.make 64 0;
    pay_len = Array.make 64 0;
    ver = Array.make 64 0;
    seq = Array.make 64 0;
    next = Array.make 64 (-1);
    live = Bytes.make 64 '\000';
    n_slots = 0;
    n_live = 0;
    next_seq = 0;
    sorted = [||];
    sorted_valid = true;
    filter = Idfilter.create ();
  }

(* ------------------------------------------------------------------ *)
(* Arena spans                                                         *)

let span t off len = Buffer.sub t.arena off len

let span_equal t off len s =
  len = String.length s
  &&
  let rec go i = i = len || (Buffer.nth t.arena (off + i) = String.unsafe_get s i && go (i + 1)) in
  go 0

let add_span t s =
  let off = Buffer.length t.arena in
  Buffer.add_string t.arena s;
  off

let grow_int fill a n =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let intern_key t s =
  match Hashtbl.find_opt t.dict s with
  | Some id -> id
  | None ->
    if t.n_keys = Array.length t.k_off then begin
      let ncap = max 64 (2 * t.n_keys) in
      t.k_off <- grow_int 0 t.k_off ncap;
      t.k_len <- grow_int 0 t.k_len ncap;
      t.head <- grow_int (-1) t.head ncap
    end;
    let id = t.n_keys in
    t.k_off.(id) <- add_span t s;
    t.k_len.(id) <- String.length s;
    t.head.(id) <- -1;
    Hashtbl.add t.dict s id;
    t.n_keys <- id + 1;
    id

(* Compare an interned key against a query string, byte-wise over the
   arena — no extraction on the binary-search hot path. *)
let compare_key t kid s =
  let off = t.k_off.(kid) and len = t.k_len.(kid) in
  let slen = String.length s in
  let n = min len slen in
  let rec go i =
    if i = n then Int.compare len slen
    else
      let c = Char.compare (Buffer.nth t.arena (off + i)) (String.unsafe_get s i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let key_has_prefix t kid p =
  let off = t.k_off.(kid) in
  let plen = String.length p in
  t.k_len.(kid) >= plen
  &&
  let rec go i = i = plen || (Buffer.nth t.arena (off + i) = String.unsafe_get p i && go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Slots and the sorted view                                           *)

let ensure_slot_cap t =
  if t.n_slots = Array.length t.key_t then begin
    let ncap = max 64 (2 * t.n_slots) in
    t.key_t <- grow_int 0 t.key_t ncap;
    t.id_off <- grow_int 0 t.id_off ncap;
    t.id_len <- grow_int 0 t.id_len ncap;
    t.pay_off <- grow_int 0 t.pay_off ncap;
    t.pay_len <- grow_int 0 t.pay_len ncap;
    t.ver <- grow_int 0 t.ver ncap;
    t.seq <- grow_int 0 t.seq ncap;
    t.next <- grow_int (-1) t.next ncap;
    let b = Bytes.make ncap '\000' in
    Bytes.blit t.live 0 b 0 t.n_slots;
    t.live <- b
  end

let ensure_sorted t =
  if not t.sorted_valid then begin
    let slots = Array.make t.n_live 0 in
    let j = ref 0 in
    for s = 0 to t.n_slots - 1 do
      if Bytes.get t.live s = '\001' then begin
        slots.(!j) <- s;
        incr j
      end
    done;
    (* Key strings extracted only for the sort's lifetime. *)
    let tagged =
      Array.map (fun s -> (span t t.k_off.(t.key_t.(s)) t.k_len.(t.key_t.(s)), t.seq.(s), s)) slots
    in
    Array.sort
      (fun (ka, sa, _) (kb, sb, _) ->
        let c = String.compare ka kb in
        if c <> 0 then c else Int.compare sb sa)
      tagged;
    t.sorted <- Array.map (fun (_, _, s) -> s) tagged;
    t.sorted_valid <- true
  end

(* First index in [sorted] whose key is >= [key]. *)
let lower_bound t key =
  let lo = ref 0 and hi = ref (Array.length t.sorted) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if compare_key t t.key_t.(t.sorted.(mid)) key < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

let item_of t s =
  {
    key = span t t.k_off.(t.key_t.(s)) t.k_len.(t.key_t.(s));
    item_id = span t t.id_off.(s) t.id_len.(s);
    payload = span t t.pay_off.(s) t.pay_len.(s);
    version = t.ver.(s);
  }

(* ------------------------------------------------------------------ *)
(* Compaction                                                          *)

let compact t =
  let j = ref 0 in
  for s = 0 to t.n_slots - 1 do
    if Bytes.get t.live s = '\001' then begin
      let d = !j in
      t.key_t.(d) <- t.key_t.(s);
      t.id_off.(d) <- t.id_off.(s);
      t.id_len.(d) <- t.id_len.(s);
      t.pay_off.(d) <- t.pay_off.(s);
      t.pay_len.(d) <- t.pay_len.(s);
      t.ver.(d) <- t.ver.(s);
      t.seq.(d) <- t.seq.(s);
      incr j
    end
  done;
  Bytes.fill t.live 0 (Bytes.length t.live) '\000';
  Bytes.fill t.live 0 !j '\001';
  t.n_slots <- !j;
  (* Rebuild the per-key chains over the surviving slots. Chain order
     only matters for lookups, but walking slots in ascending order
     pushes larger seqs onto chain heads last, restoring newest-first
     heads as a bonus. *)
  Array.fill t.head 0 t.n_keys (-1);
  for s = 0 to t.n_slots - 1 do
    let kid = t.key_t.(s) in
    t.next.(s) <- t.head.(kid);
    t.head.(kid) <- s
  done;
  t.sorted_valid <- false

let maybe_compact t =
  let dead = t.n_slots - t.n_live in
  if dead > 64 && dead > t.n_live then compact t

(* ------------------------------------------------------------------ *)
(* Store_intf.S                                                        *)

let find_slot t kid item_id =
  let rec go s =
    if s < 0 then -1
    else if span_equal t t.id_off.(s) t.id_len.(s) item_id then s
    else go t.next.(s)
  in
  go t.head.(kid)

let rebuild_filter t =
  Idfilter.rebuild t.filter ~live:t.n_live (fun add ->
      for kid = 0 to t.n_keys - 1 do
        if t.head.(kid) >= 0 then begin
          let key = span t t.k_off.(kid) t.k_len.(kid) in
          let rec go s =
            if s >= 0 then begin
              add (Idfilter.hash key (span t t.id_off.(s) t.id_len.(s)));
              go t.next.(s)
            end
          in
          go t.head.(kid)
        end
      done)

let put t (i : item) =
  if Idfilter.full t.filter then rebuild_filter t;
  let kid = intern_key t i.key in
  let h = Idfilter.hash i.key i.item_id in
  let s = if t.head.(kid) >= 0 && Idfilter.mem t.filter h then find_slot t kid i.item_id else -1 in
  if s >= 0 then
    if i.version >= t.ver.(s) then begin
      (* LWW in place: the slot (and its seq) survives, so the item
         keeps its scan position (ordering contract). The overwritten
         payload's arena bytes leak until [clear]. *)
      t.pay_off.(s) <- add_span t i.payload;
      t.pay_len.(s) <- String.length i.payload;
      t.ver.(s) <- i.version;
      true
    end
    else false
  else begin
    ensure_slot_cap t;
    let s = t.n_slots in
    t.key_t.(s) <- kid;
    t.id_off.(s) <- add_span t i.item_id;
    t.id_len.(s) <- String.length i.item_id;
    t.pay_off.(s) <- add_span t i.payload;
    t.pay_len.(s) <- String.length i.payload;
    t.ver.(s) <- i.version;
    t.seq.(s) <- t.next_seq;
    t.next_seq <- t.next_seq + 1;
    Bytes.set t.live s '\001';
    t.next.(s) <- t.head.(kid);
    t.head.(kid) <- s;
    t.n_slots <- t.n_slots + 1;
    t.n_live <- t.n_live + 1;
    t.sorted_valid <- false;
    Idfilter.add t.filter h;
    true
  end

let unlink t kid s =
  if t.head.(kid) = s then t.head.(kid) <- t.next.(s)
  else begin
    let rec go p =
      if p >= 0 then
        if t.next.(p) = s then t.next.(p) <- t.next.(s) else go t.next.(p)
    in
    go t.head.(kid)
  end

let remove t ~key ~item_id =
  match Hashtbl.find_opt t.dict key with
  | None -> ()
  | Some kid ->
    let s = find_slot t kid item_id in
    if s >= 0 then begin
      unlink t kid s;
      Bytes.set t.live s '\000';
      t.n_live <- t.n_live - 1;
      maybe_compact t
    end

(* Chains are newest-first (inserts push at the head, updates stay in
   place) — exactly the within-key order of the contract. *)
let find t key =
  match Hashtbl.find_opt t.dict key with
  | None -> []
  | Some kid ->
    let rec go s acc = if s < 0 then List.rev acc else go t.next.(s) (item_of t s :: acc) in
    go t.head.(kid) []

let range t ~lo ~hi =
  if String.compare lo hi > 0 then []
  else begin
    ensure_sorted t;
    let n = Array.length t.sorted in
    let i = ref (lower_bound t lo) in
    let acc = ref [] in
    let last_kid = ref (-1) in
    let last_in = ref false in
    let within = ref true in
    while !within && !i < n do
      let s = t.sorted.(!i) in
      let kid = t.key_t.(s) in
      if kid <> !last_kid then begin
        last_kid := kid;
        last_in := compare_key t kid hi <= 0
      end;
      if !last_in then begin
        if Bytes.get t.live s = '\001' then acc := item_of t s :: !acc;
        incr i
      end
      else within := false
    done;
    List.rev !acc
  end

let with_prefix t prefix =
  ensure_sorted t;
  let n = Array.length t.sorted in
  let i = ref (lower_bound t prefix) in
  let acc = ref [] in
  let last_kid = ref (-1) in
  let last_in = ref false in
  let within = ref true in
  while !within && !i < n do
    let s = t.sorted.(!i) in
    let kid = t.key_t.(s) in
    if kid <> !last_kid then begin
      last_kid := kid;
      last_in := key_has_prefix t kid prefix
    end;
    if !last_in then begin
      if Bytes.get t.live s = '\001' then acc := item_of t s :: !acc;
      incr i
    end
    else within := false
  done;
  List.rev !acc

let size t = t.n_live

let iter t f =
  ensure_sorted t;
  Array.iter (fun s -> if Bytes.get t.live s = '\001' then f (item_of t s)) t.sorted

let to_list t =
  ensure_sorted t;
  Array.fold_right
    (fun s acc -> if Bytes.get t.live s = '\001' then item_of t s :: acc else acc)
    t.sorted []

let filter_partition t pred =
  ensure_sorted t;
  let removed = ref [] in
  Array.iter
    (fun s ->
      if Bytes.get t.live s = '\001' then begin
        let it = item_of t s in
        if not (pred it) then begin
          unlink t t.key_t.(s) s;
          Bytes.set t.live s '\000';
          t.n_live <- t.n_live - 1;
          removed := it :: !removed
        end
      end)
    t.sorted;
  maybe_compact t;
  List.rev !removed

let digest t =
  ensure_sorted t;
  Array.fold_right
    (fun s acc ->
      if Bytes.get t.live s = '\001' then
        ( span t t.k_off.(t.key_t.(s)) t.k_len.(t.key_t.(s)),
          span t t.id_off.(s) t.id_len.(s),
          t.ver.(s) )
        :: acc
      else acc)
    t.sorted []

let clear t =
  Hashtbl.reset t.dict;
  t.arena <- Buffer.create 256;
  t.k_off <- Array.make 64 0;
  t.k_len <- Array.make 64 0;
  t.head <- Array.make 64 (-1);
  t.n_keys <- 0;
  t.key_t <- Array.make 64 0;
  t.id_off <- Array.make 64 0;
  t.id_len <- Array.make 64 0;
  t.pay_off <- Array.make 64 0;
  t.pay_len <- Array.make 64 0;
  t.ver <- Array.make 64 0;
  t.seq <- Array.make 64 0;
  t.next <- Array.make 64 (-1);
  t.live <- Bytes.make 64 '\000';
  t.n_slots <- 0;
  t.n_live <- 0;
  t.next_seq <- 0;
  t.sorted <- [||];
  t.sorted_valid <- true;
  Idfilter.clear t.filter

(* Same accounting model as {!Backend_hash.stats}: deterministic heap
   estimates, not GC measurements. Arena data, the key-dictionary
   columns and cells, the eight int columns and liveness bytes (all at
   capacity — array slack is a real cost), the sorted view and the
   membership filter. *)
let stats t =
  let bytes =
    Idfilter.bytes t.filter + 24 + Buffer.length t.arena
    + (8 * 3 * Array.length t.k_off)
    + (8 * 8 * Array.length t.key_t)
    + (Bytes.length t.live + 24)
    + ((8 * Array.length t.sorted) + 24)
    + (40 * t.n_keys)
  in
  { bytes; triples = t.n_live }
