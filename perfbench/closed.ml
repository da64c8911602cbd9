(* The two closed-loop workloads, point_rw and analytic: one client at one
   origin sends its next operation only after the previous one returned.
   Operations cycle through a fixed slot pattern, so every run has the
   same mix; the constants in each slot come from the seed. The client
   enters the overlay at one origin peer (point_rw, whose per-origin
   result cache is under test) or at the next peer for every operation
   (analytic, so the caches warm slowly). *)

module U = Unistore
module V = Unistore.Value
module Triple = Unistore.Triple
module Engine = Unistore_qproc.Engine
module Binding = Unistore_qproc.Binding
module Cost = Unistore_qproc.Cost
module Ast = Unistore_vql.Ast
module Parser = Unistore_vql.Parser
module Publications = Unistore_workload.Publications
module Zipf = Unistore_util.Zipf
module Rng = Unistore_util.Rng

type op =
  | Query of {
      template : string;
      src : string;
      strategy : U.strategy;
      check : Engine.report -> string option;  (* [Some why] on a wrong answer *)
    }
  | Write of {
      template : string;
      run : U.t -> origin:int -> bool;  (* the facade call; [false] on failure *)
      commit : unit -> unit;  (* apply the write to the reference model *)
    }

let template = function Query q -> q.template | Write w -> w.template

(* ------------------------------------------------------------------ *)
(* Answer checks                                                        *)

let cells vars (report : Engine.report) =
  List.map
    (fun b ->
      Refeval.row
        (List.map
           (fun v -> Option.value (Binding.find b v) ~default:(V.S "<unbound>"))
           vars))
    report.Engine.rows

let mismatch template ~got ~want =
  Some (Printf.sprintf "%s: %d rows, reference has %d" template got want)

(* The answer must equal the reference bag. *)
let expect_bag template vars want (report : Engine.report) =
  let got = Refeval.bag (cells vars report) in
  if List.equal String.equal got want then None
  else mismatch template ~got:(List.length got) ~want:(List.length want)

(* ORDER BY ... LIMIT: ties make the chosen rows ambiguous, so the rows
   must come from the reference and their sort keys must equal the
   reference's first [limit] keys, in order. *)
let expect_top template vars ~key all_rows want_keys (report : Engine.report) =
  let got = cells vars report in
  let pool = Hashtbl.create 64 in
  List.iter (fun r -> Hashtbl.replace pool r (1 + Option.value ~default:0 (Hashtbl.find_opt pool r))) all_rows;
  let from_ref =
    List.for_all
      (fun r ->
        match Hashtbl.find_opt pool r with
        | Some n when n > 0 ->
          Hashtbl.replace pool r (n - 1);
          true
        | _ -> false)
      got
  in
  let keys =
    List.map (fun b -> match Binding.find b key with Some (V.I x) -> x | _ -> min_int) report.Engine.rows
  in
  let show ks = String.concat "," (List.map string_of_int ks) in
  if not from_ref then Some (Printf.sprintf "%s: a row not in the reference among %s" template (String.concat " " got))
  else if not (List.equal Int.equal keys want_keys) then
    Some (Printf.sprintf "%s: keys %s, reference %s" template (show keys) (show want_keys))
  else None

let checked f report = Span.harness_step "reference check" (fun () -> f report)

(* ------------------------------------------------------------------ *)
(* Input pools                                                          *)

let str_values (ds : Publications.dataset) attr =
  List.filter_map
    (fun (t : Triple.t) ->
      match t.Triple.value with
      | V.S s when String.equal t.Triple.attr attr && not (String.contains s '\'') -> Some s
      | _ -> None)
    ds.Publications.triples
  |> List.sort_uniq String.compare
  |> Array.of_list

let author_oids (ds : Publications.dataset) =
  List.filter_map
    (fun (t : Triple.t) ->
      if String.equal t.Triple.attr "age" && t.Triple.oid.[0] = 'a' then Some t.Triple.oid else None)
    ds.Publications.triples
  |> List.sort_uniq String.compare
  |> Array.of_list

(* A Zipf(1.1) draw over [pool], whose popularity order is a seeded
   permutation (so the hot keys are not simply the first ones). *)
let zipf_picker rng pool =
  let pool = Array.copy pool in
  Rng.shuffle rng pool;
  let z = Zipf.create ~n:(Array.length pool) ~s:1.1 in
  fun () -> pool.(Zipf.sample z rng - 1)

(* ------------------------------------------------------------------ *)
(* point_rw                                                             *)

let min_age = 24
let max_age = 68

(* 10 slots: 8 reads and 2 writes. *)
let point_slots = [| `Name; `Oid; `Range; `Name; `Oid; `Write; `Top; `Name; `Oid; `Write |]

let point_rw ~seed (data : Deploy.data) =
  let ds = data.Deploy.ds in
  let rng = Rng.create (seed * 7919 + 17) in
  let db = Span.harness_step "reference model" (fun () -> Refeval.db_of_triples ds.Publications.triples) in
  let names = str_values ds "name" and oids = author_oids ds in
  let pick_name = zipf_picker rng names and pick_oid = zipf_picker rng oids in
  let pick_lo = zipf_picker rng (Array.init (max_age - min_age - 2) (fun i -> min_age + i)) in
  let pick_n = zipf_picker rng (Array.init 10 (fun i -> i + 1)) in
  let slot = ref 0 and writes = ref 0 and next_w = ref 0 in
  let live = Queue.create () in
  let write () =
    let w = !writes in
    incr writes;
    match w mod 4 with
    | 0 ->
      (* insert a small tuple under a name from the hot pool *)
      let oid = Printf.sprintf "w%06d" !next_w in
      incr next_w;
      let fields = [ ("name", V.S (pick_name ())); ("age", V.I (Rng.int_in rng min_age max_age)) ] in
      Write
        {
          template = "insert_tuple";
          run = (fun st ~origin -> U.insert_tuple st ~origin ~oid fields = List.length fields);
          commit =
            (fun () ->
              List.iter (fun (a, v) -> Refeval.add db ~oid a v) fields;
              Queue.add (oid, fields) live);
        }
    | 1 ->
      let oid = pick_oid () in
      let old_value = List.hd (Refeval.values db ~oid "age") in
      let v = V.I (Rng.int_in rng min_age max_age) in
      Write
        {
          template = "update_value";
          run = (fun st ~origin -> U.update_value st ~origin ~oid ~attr:"age" ~old_value v);
          commit =
            (fun () ->
              Refeval.remove db ~oid "age" old_value;
              Refeval.add db ~oid "age" v);
        }
    | _ ->
      (* delete the oldest inserted tuple, one triple at a time *)
      let oid, fields = Queue.peek live in
      let a, v = List.hd fields in
      Write
        {
          template = "delete_triple";
          run = (fun st ~origin -> U.delete_triple st ~origin (Triple.make ~oid ~attr:a v));
          commit =
            (fun () ->
              Refeval.remove db ~oid a v;
              ignore (Queue.pop live);
              match List.tl fields with [] -> () | rest -> Queue.push (oid, rest) live);
        }
  in
  let next () =
    let s = point_slots.(!slot mod Array.length point_slots) in
    incr slot;
    match s with
    | `Name ->
      let n = pick_name () in
      Query
        {
          template = "point_name";
          src = Printf.sprintf "SELECT ?a WHERE { (?a,'name','%s') }" n;
          strategy = U.Centralized;
          check = checked (fun r -> expect_bag "point_name" [ "a" ] (Refeval.by_name db n) r);
        }
    | `Oid ->
      let o = pick_oid () in
      Query
        {
          template = "point_oid";
          src = Printf.sprintf "SELECT ?att,?v WHERE { ('%s',?att,?v) }" o;
          strategy = U.Centralized;
          check = checked (fun r -> expect_bag "point_oid" [ "att"; "v" ] (Refeval.by_oid db o) r);
        }
    | `Range ->
      let lo = pick_lo () in
      let hi = lo + 3 in
      Query
        {
          template = "age_range";
          src =
            Printf.sprintf "SELECT ?a,?g WHERE { (?a,'age',?g) FILTER ?g >= %d FILTER ?g <= %d }" lo hi;
          strategy = U.Centralized;
          check = checked (fun r -> expect_bag "age_range" [ "a"; "g" ] (Refeval.age_range db ~lo ~hi) r);
        }
    | `Top ->
      let n = pick_n () in
      Query
        {
          template = "order_limit";
          src = Printf.sprintf "SELECT ?a,?v WHERE { (?a,'age',?v) } ORDER BY ?v ASC LIMIT %d" n;
          strategy = U.Centralized;
          check =
            checked (fun r ->
                let all, keys = Refeval.youngest db ~n in
                expect_top "order_limit" [ "a"; "v" ] ~key:"v" all keys r);
        }
    | `Write -> write ()
  in
  next

(* ------------------------------------------------------------------ *)
(* analytic                                                             *)

let skyline_src series =
  Printf.sprintf
    "SELECT ?name,?age,?cnt WHERE {(?a,'name',?name) (?a,'age',?age) (?a,'num_of_pubs',?cnt) \
     (?a,'has_published',?title) (?p,'title',?title) (?p,'published_in',?conf) \
     (?c,'confname',?conf) (?c,'series',?sr) FILTER edist(?sr,'%s')<3 } ORDER BY SKYLINE OF \
     ?age MIN, ?cnt MAX"
    series

(* 10 slots. Similarity runs twice a cycle: it is the fast path the
   rank_config knobs gate, and the cheap templates stay six of ten so
   the median call lies well inside their cluster, not on its edge. *)
let analytic_slots =
  [| `Join3; `Age_join; `Sky_c; `Similar; `Contains; `Order_join; `Join3; `Sky_m; `Age_join; `Similar |]

let analytic ~seed (data : Deploy.data) =
  let ds = data.Deploy.ds in
  let rng = Rng.create (seed * 6271 + 5) in
  let db = Span.harness_step "reference model" (fun () -> Refeval.db_of_triples ds.Publications.triples) in
  let names = str_values ds "name" and titles = str_values ds "title" in
  let series = Array.of_list ds.Publications.series_pool in
  Rng.shuffle rng series;
  let sky_ref = Hashtbl.create 8 in
  let skyline8 s =
    match Hashtbl.find_opt sky_ref s with
    | Some r -> r
    | None ->
      let r = Refeval.skyline8 db ~series:s in
      Hashtbl.add sky_ref s r;
      r
  in
  let slot = ref 0 in
  let next () =
    let s = analytic_slots.(!slot mod Array.length analytic_slots) in
    incr slot;
    match s with
    | `Join3 ->
      let n = Rng.pick rng names in
      Query
        {
          template = "join3";
          src =
            Printf.sprintf
              "SELECT ?t,?p WHERE { (?a,'name','%s') (?a,'has_published',?t) (?p,'title',?t) }" n;
          strategy = U.Centralized;
          check = checked (fun r -> expect_bag "join3" [ "t"; "p" ] (Refeval.join3 db ~name:n) r);
        }
    | `Age_join ->
      let lo = Rng.int_in rng min_age (max_age - 4) in
      let hi = lo + 4 in
      Query
        {
          template = "age_join";
          src =
            Printf.sprintf
              "SELECT ?n,?g WHERE { (?a,'name',?n) (?a,'age',?g) FILTER ?g >= %d FILTER ?g <= %d }"
              lo hi;
          strategy = U.Centralized;
          check = checked (fun r -> expect_bag "age_join" [ "n"; "g" ] (Refeval.age_join db ~lo ~hi) r);
        }
    | (`Sky_c | `Sky_m) as k ->
      (* each skyline template walks the series in turn: the series sets
         the skyline's cost, so a uniform draw would add its variance *)
      let template, strategy =
        match k with `Sky_c -> ("skyline_centralized", U.Centralized) | `Sky_m -> ("skyline_mutant", U.Mutant)
      in
      let sr = series.((!slot / Array.length analytic_slots) mod Array.length series) in
      Query
        {
          template;
          src = skyline_src sr;
          strategy;
          check = checked (fun r -> expect_bag template [ "name"; "age"; "cnt" ] (skyline8 sr) r);
        }
    | `Similar ->
      (* a stored title with two characters replaced: at distance exactly
         2, the edge of the predicate, so an off-by-one in the distance
         shows *)
      let t = Bytes.of_string (Rng.pick rng titles) in
      let n = Bytes.length t in
      let i = Rng.int rng n in
      let j = (i + 1 + Rng.int rng (n - 1)) mod n in
      List.iter
        (fun k -> Bytes.set t k (if Char.equal (Bytes.get t k) '#' then '%' else '#'))
        [ i; j ];
      let pattern = Bytes.to_string t in
      Query
        {
          template = "edist_title";
          src = Printf.sprintf "SELECT ?p WHERE { (?p,'title',?t) FILTER edist(?t,'%s') <= 2 }" pattern;
          strategy = U.Centralized;
          check = checked (fun r -> expect_bag "edist_title" [ "p" ] (Refeval.similar db ~pattern ~d:2) r);
        }
    | `Contains ->
      let t = Rng.pick rng titles in
      let len = min 5 (String.length t) in
      let sub = String.sub t (Rng.int rng (String.length t - len + 1)) len in
      Query
        {
          template = "contains_title";
          src = Printf.sprintf "SELECT ?p WHERE { (?p,'title',?t) FILTER contains(?t,'%s') }" sub;
          strategy = U.Centralized;
          check = checked (fun r -> expect_bag "contains_title" [ "p" ] (Refeval.containing db ~sub) r);
        }
    | `Order_join ->
      let min_c = Rng.int_in rng 1 6 in
      Query
        {
          template = "order_join";
          src =
            Printf.sprintf
              "SELECT ?n,?c WHERE { (?a,'name',?n) (?a,'num_of_pubs',?c) FILTER ?c >= %d } ORDER BY \
               ?c DESC LIMIT 10"
              min_c;
          strategy = U.Centralized;
          check =
            checked (fun r ->
                let all, keys = Refeval.pubs_join db ~min_c ~limit:10 in
                expect_top "order_join" [ "n"; "c" ] ~key:"c" all keys r);
        }
  in
  next

(* ------------------------------------------------------------------ *)
(* The closed loop                                                      *)

(* What a traced phase keeps for the per-layer numbers. *)
type trace_log = {
  mutable accesses : Cost.access list;  (* bulk accesses of executed plan steps *)
  mutable probe_keys : string list list;  (* A#v keys of bind-join steps, per query *)
  mutable rows_examined : int;
  mutable rows_returned : int;
  mutable bytes_shipped : int;
  mutable alloc_words : float;
  mutable queries : int;
}

let new_log () =
  {
    accesses = [];
    probe_keys = [];
    rows_examined = 0;
    rows_returned = 0;
    bytes_shipped = 0;
    alloc_words = 0.0;
    queries = 0;
  }

(* Keys a bind-join step probed: its constant attribute with every value
   its object variable took in the answer. *)
let probe_keys (report : Engine.report) =
  List.concat_map
    (fun (tr : Unistore_qproc.Exec.step_trace) ->
      let st = tr.Unistore_qproc.Exec.step in
      if not st.Unistore_qproc.Physical.bindjoin then []
      else
        match st.Unistore_qproc.Physical.pattern with
        | { Ast.attr = Ast.TConst (V.S a); obj = Ast.TVar x; _ } ->
          List.filter_map
            (fun b -> Option.map (Unistore_triple.Keys.attr_value_key a) (Binding.find b x))
            report.Engine.rows
        | _ -> [])
    report.Engine.traces
  |> List.sort_uniq String.compare

let log_report log (report : Engine.report) ~alloc =
  log.queries <- log.queries + 1;
  log.alloc_words <- log.alloc_words +. alloc;
  log.bytes_shipped <- log.bytes_shipped + report.Engine.bytes_shipped;
  log.rows_returned <- log.rows_returned + List.length report.Engine.rows;
  List.iter
    (fun (tr : Unistore_qproc.Exec.step_trace) ->
      log.rows_examined <- log.rows_examined + tr.Unistore_qproc.Exec.rows_in + tr.actual_card;
      let st = tr.Unistore_qproc.Exec.step in
      if not st.Unistore_qproc.Physical.bindjoin then
        log.accesses <- st.Unistore_qproc.Physical.access :: log.accesses)
    report.Engine.traces;
  match probe_keys report with [] -> () | ks -> log.probe_keys <- ks :: log.probe_keys

let minor_words () = (Gc.quick_stat ()).Gc.minor_words

(* One query, traced: the front-end pieces the facade runs inside
   [Unistore.query], each called on its own under a span, then the query
   itself. *)
let traced_query st ~origin ~src ~strategy =
  let q = Result.get_ok (Span.with_span "vql.parse" (fun () -> Parser.parse src)) in
  let stats =
    Span.with_span "qproc.stats" (fun () ->
        match U.gossiped_stats st ~origin with Some s -> s | None -> U.stats st)
  in
  Span.with_span "analysis.check" (fun () -> ignore (Engine.analyze stats q));
  Span.with_span "qproc.plan" (fun () ->
      ignore
        (Engine.plan_query (U.tstore st) stats ~replication:(U.config st).U.replication
           ?cache:(U.result_cache st ~origin) ~origin q));
  Span.with_span "qproc.query" (fun () ->
      let w0 = minor_words () in
      let r = U.query st ~origin ~strategy src in
      (r, minor_words () -. w0))

(* [run m st ~next ~origins ~seconds ?max_ops ?log] drives the closed
   loop for [seconds] of wall time, or [max_ops] operations if that comes
   first, counting into [m]; operation [i] enters at peer [i mod origins].
   With [log], every operation is traced. *)
let run (m : Meas.t) st ~next ~origins ~seconds ?(max_ops = max_int) ?log () =
  let start = Span.now_ns () in
  let deadline = Int64.add (Span.wall_ns ()) (Int64.of_float (seconds *. 1e9)) in
  let timed0 = Span.timed_total_s () in
  let i = ref 0 in
  while !i < max_ops && Int64.compare (Span.wall_ns ()) deadline < 0 do
    Calib.tick ();
    let op = Span.harness_step "input generation" next in
    let origin = !i mod origins in
    let m0 = U.messages_sent st and s0 = U.now st in
    (match op with
    | Query q ->
      let (res, alloc), dt =
        Span.timed (fun () ->
            match log with
            | None -> (U.query st ~origin ~strategy:q.strategy q.src, 0.0)
            | Some _ ->
              Span.with_span ~op:!i "op" (fun () -> traced_query st ~origin ~src:q.src ~strategy:q.strategy))
      in
      Meas.Samples.add m.Meas.host_ms (dt *. 1000.0);
      (match res with
      | Error e -> Meas.outcome m ~bad:1 (lazy (q.template ^ ": " ^ e))
      | Ok report ->
        Meas.count_ops m ~n:1 ~host_s:dt;
        Meas.Samples.add m.Meas.sim_ms report.Engine.latency;
        Option.iter (fun log -> log_report log report ~alloc) log;
        let why =
          if not report.Engine.complete then Some (q.template ^ ": incomplete answer")
          else q.check report
        in
        Meas.outcome m ~bad:(if Option.is_some why then 1 else 0) (lazy (Option.get why)))
    | Write w ->
      let ok, dt =
        Span.timed (fun () ->
            match log with
            | None -> w.run st ~origin
            | Some _ -> Span.with_span ~op:!i "op" (fun () -> Span.with_span w.template (fun () -> w.run st ~origin)))
      in
      Meas.Samples.add m.Meas.host_ms (dt *. 1000.0);
      Meas.Samples.add m.Meas.sim_ms (U.now st -. s0);
      Meas.count_ops m ~n:1 ~host_s:dt;
      m.Meas.writes <- m.Meas.writes + 1;
      Span.harness_step "reference model" w.commit;
      Meas.outcome m ~bad:(if ok then 0 else 1) (lazy (w.template ^ ": write not stored")));
    m.Meas.msgs <- m.Meas.msgs + (U.messages_sent st - m0);
    Meas.per_template m (template op) ~msgs:(U.messages_sent st - m0)
      ~host_s:(Meas.Samples.last m.Meas.host_ms /. 1000.0);
    incr i
  done;
  m.Meas.phase_s <- m.Meas.phase_s +. Span.seconds_between start (Span.now_ns ());
  m.Meas.timed_s <- m.Meas.timed_s +. (Span.timed_total_s () -. timed0)
