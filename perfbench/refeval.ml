(* The reference the answers are checked against: a small centralized
   evaluator for the benchmark's fixed query templates, written here from
   the generated data alone. It shares no code with the query processor:
   its own edit distance, substring test, joins and skyline. *)

module Value = Unistore.Value

let show = function
  | Value.S s -> "s:" ^ s
  | Value.I i -> "i:" ^ string_of_int i
  | Value.F f -> Printf.sprintf "f:%h" f
  | Value.B b -> if b then "b:true" else "b:false"

let row cells = String.concat "|" (List.map show cells)
let bag rows = List.sort String.compare rows

let levenshtein a b =
  let la = String.length a and lb = String.length b in
  let prev = Array.init (lb + 1) Fun.id and cur = Array.make (lb + 1) 0 in
  for i = 1 to la do
    cur.(0) <- i;
    for j = 1 to lb do
      let sub = if Char.equal a.[i - 1] b.[j - 1] then 0 else 1 in
      cur.(j) <- min (min (prev.(j) + 1) (cur.(j - 1) + 1)) (prev.(j - 1) + sub)
    done;
    Array.blit cur 0 prev 0 (lb + 1)
  done;
  prev.(lb)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i j = j = nn || (Char.equal hay.[i + j] needle.[j] && at i (j + 1)) in
  let rec go i = i + nn <= nh && (at i 0 || go (i + 1)) in
  go 0

(* A static triple set indexed by attribute and by OID. *)
type db = {
  by_attr : (string, (string * Value.t) list) Hashtbl.t;  (* attr -> (oid, v) *)
  by_oid : (string, (string * Value.t) list) Hashtbl.t;  (* oid -> (attr, v) *)
}

let push h k x = Hashtbl.replace h k (x :: Option.value ~default:[] (Hashtbl.find_opt h k))

let db_of_triples (triples : Unistore.Triple.t list) =
  let by_attr = Hashtbl.create 32 and by_oid = Hashtbl.create 4096 in
  List.iter
    (fun { Unistore.Triple.oid; attr; value } ->
      push by_attr attr (oid, value);
      push by_oid oid (attr, value))
    triples;
  { by_attr; by_oid }

let attr db a = Option.value ~default:[] (Hashtbl.find_opt db.by_attr a)

let values db ~oid a =
  List.filter_map
    (fun (a', v) -> if String.equal a a' then Some v else None)
    (Option.value ~default:[] (Hashtbl.find_opt db.by_oid oid))

(* Subjects holding [a = v]. *)
let subjects db a v =
  List.filter_map (fun (o, v') -> if Value.equal v v' then Some o else None) (attr db a)

(* ------------------------------------------------------------------ *)
(* analytic templates                                                   *)

(* (?a,'name',NAME) (?a,'has_published',?t) (?p,'title',?t) -> ?t,?p *)
let join3 db ~name =
  List.concat_map
    (fun a ->
      List.concat_map
        (fun t -> List.map (fun p -> row [ t; Value.S p ]) (subjects db "title" t))
        (values db ~oid:a "has_published"))
    (subjects db "name" (Value.S name))
  |> bag

(* (?a,'name',?n) (?a,'age',?g) FILTER lo <= ?g <= hi -> ?n,?g *)
let age_join db ~lo ~hi =
  List.concat_map
    (fun (a, g) ->
      match g with
      | Value.I x when x >= lo && x <= hi -> List.map (fun n -> row [ n; g ]) (values db ~oid:a "name")
      | _ -> [])
    (attr db "age")
  |> bag

(* The paper's 8-pattern query: authors with their age and publication
   count who published at a conference whose series is within edit
   distance < 3 of [series], then the skyline (age MIN, count MAX);
   projected on ?name,?age,?cnt, duplicates kept. *)
let skyline8 db ~series =
  let ok_conf =
    List.filter_map
      (fun (c, sr) ->
        match sr with Value.S s when levenshtein s series < 3 -> Some c | _ -> None)
      (attr db "series")
  in
  let confnames = List.concat_map (fun c -> values db ~oid:c "confname") ok_conf in
  let rows =
    List.concat_map
      (fun (a, name) ->
        List.concat_map
          (fun age ->
            List.concat_map
              (fun cnt ->
                List.concat_map
                  (fun title ->
                    List.concat_map
                      (fun p ->
                        List.concat_map
                          (fun conf ->
                            List.filter_map
                              (fun cn -> if Value.equal cn conf then Some (name, age, cnt) else None)
                              confnames)
                          (values db ~oid:p "published_in"))
                      (subjects db "title" title))
                  (values db ~oid:a "has_published"))
              (values db ~oid:a "num_of_pubs"))
          (values db ~oid:a "age"))
      (attr db "name")
  in
  let num = function Value.I i -> float_of_int i | Value.F f -> f | _ -> nan in
  let dominates (_, a1, c1) (_, a2, c2) =
    let a1 = num a1 and a2 = num a2 and c1 = num c1 and c2 = num c2 in
    a1 <= a2 && c1 >= c2 && (a1 < a2 || c1 > c2)
  in
  List.filter (fun r -> not (List.exists (fun r' -> dominates r' r) rows)) rows
  |> List.map (fun (n, a, c) -> row [ n; a; c ])
  |> bag

(* (?p,'title',?t) FILTER edist(?t, pattern) <= d -> ?p *)
let similar db ~pattern ~d =
  List.filter_map
    (fun (p, t) ->
      match t with
      | Value.S s when abs (String.length s - String.length pattern) <= d && levenshtein s pattern <= d ->
        Some (row [ Value.S p ])
      | _ -> None)
    (attr db "title")
  |> bag

(* (?p,'title',?t) FILTER contains(?t, sub) -> ?p *)
let containing db ~sub =
  List.filter_map
    (fun (p, t) ->
      match t with Value.S s when contains s sub -> Some (row [ Value.S p ]) | _ -> None)
    (attr db "title")
  |> bag

(* (?a,'name',?n) (?a,'num_of_pubs',?c) FILTER ?c >= min_c: every row of
   the join, and the counts of its [limit] largest rows. *)
let pubs_join db ~min_c ~limit =
  let rows =
    List.concat_map
      (fun (a, c) ->
        match c with
        | Value.I x when x >= min_c -> List.map (fun n -> (n, x)) (values db ~oid:a "name")
        | _ -> [])
      (attr db "num_of_pubs")
  in
  let top =
    List.sort (fun x y -> Int.compare y x) (List.map snd rows) |> List.filteri (fun i _ -> i < limit)
  in
  (List.map (fun (n, c) -> row [ n; Value.I c ]) rows, top)

(* ------------------------------------------------------------------ *)
(* point_rw: a model kept up to date by the workload's own writes       *)

let pull h k eq =
  let rec drop = function [] -> [] | x :: tl -> if eq x then tl else x :: drop tl in
  Hashtbl.replace h k (drop (Option.value ~default:[] (Hashtbl.find_opt h k)))

let add db ~oid a v =
  push db.by_attr a (oid, v);
  push db.by_oid oid (a, v)

let remove db ~oid a v =
  pull db.by_attr a (fun (o, v') -> String.equal o oid && Value.equal v v');
  pull db.by_oid oid (fun (a', v') -> String.equal a a' && Value.equal v v')

(* (?a,'name',NAME) -> ?a *)
let by_name db name = bag (List.map (fun o -> row [ Value.S o ]) (subjects db "name" (Value.S name)))

(* (OID,?att,?v) -> ?att,?v *)
let by_oid db oid =
  bag
    (List.map
       (fun (a, v) -> row [ Value.S a; v ])
       (Option.value ~default:[] (Hashtbl.find_opt db.by_oid oid)))

(* (?a,'age',?g) FILTER lo <= ?g <= hi -> ?a,?g *)
let age_range db ~lo ~hi =
  List.filter_map
    (fun (o, g) ->
      match g with Value.I x when x >= lo && x <= hi -> Some (row [ Value.S o; g ]) | _ -> None)
    (attr db "age")
  |> bag

(* (?a,'age',?v) ORDER BY ?v ASC LIMIT n: every row, and the n smallest
   ages. *)
let youngest db ~n =
  let rows = attr db "age" in
  let ages =
    List.filter_map (function _, Value.I x -> Some x | _ -> None) rows
    |> List.sort Int.compare
    |> List.filteri (fun i _ -> i < n)
  in
  (List.map (fun (o, g) -> row [ Value.S o; g ]) rows, ages)
