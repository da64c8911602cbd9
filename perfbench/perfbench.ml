(* The repository benchmark: one workload per process.

     perfbench.exe --workload point_rw|analytic|bulk_ingest|flash_crowd
                   --seed N --seconds S --trace 0|1
                   [--arm default|baseline] [--spans FILE] [--commit SHA]

   Prints a host fingerprint and diagnostics on lines starting with '#',
   then, as the last line, one JSON object: correct, attempted, failed and
   the metrics. With --trace 0 the metrics are the end-to-end ones, with
   --trace 1 the per-layer ones (and the spans go to --spans). See
   README.md in this directory. *)

module U = Unistore
module Publications = Unistore_workload.Publications

type args = {
  mutable workload : string;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable baseline : bool;
  mutable spans : string;
  mutable commit : string;
}

let parse_args () =
  let a =
    { workload = ""; seed = 1; seconds = 30.0; trace = false; baseline = false; spans = ""; commit = "unknown" }
  in
  let spec =
    [
      ("--workload", Arg.String (fun s -> a.workload <- s), "NAME workload to run");
      ("--seed", Arg.Int (fun n -> a.seed <- n), "N input seed");
      ("--seconds", Arg.Float (fun x -> a.seconds <- x), "S length of the measured phase");
      ("--trace", Arg.Int (fun n -> a.trace <- n <> 0), "0|1 per-layer traced run");
      ( "--arm",
        Arg.String
          (function
            | "default" -> a.baseline <- false
            | "baseline" -> a.baseline <- true
            | s -> raise (Arg.Bad ("unknown arm " ^ s))),
        "default|baseline the facade's baseline knob for this workload" );
      ("--spans", Arg.String (fun s -> a.spans <- s), "FILE where a traced run writes its spans");
      ("--commit", Arg.String (fun s -> a.commit <- s), "SHA recorded in the fingerprint");
    ]
  in
  Arg.parse spec (fun s -> raise (Arg.Bad ("unexpected argument " ^ s))) "perfbench.exe [options]";
  a

(* Fixed GC parameters, recorded in the fingerprint. *)
let gc_params () =
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 262_144; space_overhead = 120 };
  let g = Gc.get () in
  Printf.sprintf "minor_heap_words=%d space_overhead=%d" g.Gc.minor_heap_size g.Gc.space_overhead

let closed_peers = 256
let closed_authors = 200

(* point_rw and analytic measure [closed_parts] deployments one after the
   other, each with its own dataset and topology, a quarter of the run
   each: the run then averages over data and topology instead of
   measuring one draw. Their set-ups give the set-up median.

   The deployments are the same in every run ([deploy_seed]); the seed
   draws the operation stream on each ([part_seed]). Whole deployments
   differ in cost: on two of these four the planner serves point_rw's age
   range 4-5x slower than on the others, every seed alike. Drawing the
   deployments from the seed made the run's cost follow how many slow
   ones it drew, not the program. *)
let closed_parts = 4
let part_seed seed k = (seed * closed_parts) + k
let deploy_seed k = 1_000_003 + k

(* The configuration of a workload's arm: the default facade config, or
   the one knob family its sensitivity check turns off. *)
let config workload ~baseline =
  let c = U.default_config in
  if not baseline then c
  else
    match workload with
    | "point_rw" -> { c with U.cache = U.no_cache }
    | "analytic" -> { c with U.rank = U.no_rank_config }
    | "bulk_ingest" -> { c with U.batch = U.no_batch }
    | _ -> c

let balance ~baseline = if baseline then U.no_balancing else U.default_balance_config

let sizes = function
  | "point_rw" | "analytic" -> Printf.sprintf "peers=%d authors=%d" closed_peers closed_authors
  | "bulk_ingest" ->
    Printf.sprintf "peers=%d authors=%d chunk_tuples=%d" Ingest.peers Ingest.authors Ingest.chunk_tuples
  | _ ->
    Printf.sprintf "peers=%d authors=%d crowd_ms=%.0f" Flash.peers Flash.authors Flash.duration_ms

(* ------------------------------------------------------------------ *)
(* End-to-end                                                           *)

let fmt_metric (name, value, unit) = Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name value unit

let end_to_end (m : Meas.t) ~sim =
  let host = Meas.Samples.sorted m.Meas.host_ms in
  let n = Array.length host in
  let tail = Meas.tail_percentile n in
  let sim_p50, sim_p99 =
    match sim with
    | Some ps -> ps
    | None ->
      let s = Meas.Samples.sorted m.Meas.sim_ms in
      (Meas.percentile s 50.0, Meas.percentile s (float_of_int (Meas.tail_percentile (Array.length s))))
  in
  Printf.printf "# samples: host_ms n=%d (host_ms_p99 is p%d), sim_ms n=%d, ops=%d in %.3f host s, setups=%d\n" n tail
    (Meas.Samples.count m.Meas.sim_ms) m.Meas.ops m.Meas.ops_host_s (List.length m.Meas.setup_s);
  Meas.print_templates m;
  let f = Calib.factor () in
  let setup = Meas.median m.Meas.setup_s and rate = Meas.ops_per_host_s m in
  let p50 = Meas.percentile host 50.0 and p99 = Meas.percentile host (float_of_int tail) in
  Printf.printf "# calibration: kernel median %.4f ms over %d runs, factor %.4f; unscaled setup_s=%.6g ops_per_host_s=%.6g host_ms_p50=%.6g host_ms_p99=%.6g\n"
    (Calib.median_ms ()) (List.length !Calib.samples) f setup rate p50 p99;
  [
    ("setup_s", setup *. f, "s");
    ("ops_per_host_s", rate /. f, "1/s");
    ("host_ms_p50", p50 *. f, "ms");
    ("host_ms_p99", p99 *. f, "ms");
    ("sim_ms_p50", sim_p50, "ms");
    ("sim_ms_p99", sim_p99, "ms");
    ("msgs_per_op", float_of_int m.Meas.msgs /. float_of_int (max 1 m.Meas.ops), "msg/op");
    ("heap_bytes_per_peer", m.Meas.heap_bytes_per_peer, "B");
  ]

let closed_next workload ~seed data =
  if String.equal workload "point_rw" then Closed.point_rw ~seed data else Closed.analytic ~seed data

let closed_origins workload = if String.equal workload "point_rw" then 1 else closed_peers

(* Each deployment runs a fixed number of operations: the number a
   reference host (the one [Calib.reference_ms] comes from) completes in
   its share of --seconds, harness work included. The caches keep warming
   through a run (analytic's per-origin result caches fill for minutes:
   its host_ms_p50 fell 23% from a 30 s to a 60 s run), so a time-bounded
   run on a slow host would measure colder caches than on a fast one.
   With a fixed count every host measures the same operations; a part
   that runs past [part_cap] times its share of the time stops early and
   says so on a '#' line. *)
let ops_per_wall_s = function "point_rw" -> 9000.0 | _ -> 180.0
let part_ops workload ~part_s = max 1 (int_of_float (part_s *. ops_per_wall_s workload))
let part_cap = 3.0

(* Operations the heap deployment runs before its heap is taken. *)
let heap_ops workload = if String.equal workload "point_rw" then 5_000 else 280

(* The heap per peer of one more deployment, after a fixed number of
   operations. The measured phase is time-bounded and the caches grow
   with every operation, so a heap taken after it would follow the
   host's speed. Its answers are checked like the measured ones. *)
let closed_heap a cfg (m : Meas.t) =
  let seed = part_seed a.seed closed_parts in
  let data = Deploy.dataset ~seed:(deploy_seed closed_parts) ~authors:closed_authors in
  let st, dt, _ = Deploy.setup { cfg with U.peers = closed_peers; seed = deploy_seed closed_parts } data in
  m.Meas.setup_s <- dt :: m.Meas.setup_s;
  let mh = Meas.create () in
  Closed.run mh st ~next:(closed_next a.workload ~seed data) ~origins:(closed_origins a.workload)
    ~seconds:120.0 ~max_ops:(heap_ops a.workload) ();
  Meas.outcome m ~n:mh.Meas.attempted ~bad:mh.Meas.failed
    (lazy (Option.value mh.Meas.first_failure ~default:"heap phase"));
  Meas.retained_bytes st /. float_of_int closed_peers

let run_untraced a =
  let m = Meas.create () in
  let cfg = config a.workload ~baseline:a.baseline in
  let sim =
    match a.workload with
    | "point_rw" | "analytic" ->
      let parts =
        List.init closed_parts (fun k ->
            let seed = part_seed a.seed k in
            let data = Deploy.dataset ~seed:(deploy_seed k) ~authors:closed_authors in
            let st, dt, loaded = Deploy.setup { cfg with U.peers = closed_peers; seed = deploy_seed k } data in
            m.Meas.setup_s <- dt :: m.Meas.setup_s;
            if not loaded then Meas.outcome m ~n:0 ~bad:1 (lazy "set-up load incomplete");
            (st, closed_next a.workload ~seed data))
      in
      let part_s = a.seconds /. float_of_int closed_parts in
      let ops = part_ops a.workload ~part_s in
      List.iteri
        (fun k (st, next) ->
          let before = m.Meas.attempted in
          Closed.run m st ~next ~origins:(closed_origins a.workload) ~seconds:(part_cap *. part_s)
            ~max_ops:ops ();
          if m.Meas.attempted - before < ops then
            Printf.printf "# part %d cut at %.0f s of wall time after %d of %d operations\n" k
              (part_cap *. part_s) (m.Meas.attempted - before) ops)
        parts;
      Printf.printf "# parts: %d deployments, %d operations each\n" closed_parts ops;
      m.Meas.heap_bytes_per_peer <- closed_heap a cfg m;
      None
    | "bulk_ingest" ->
      ignore (Ingest.run m ~cfg ~seed:a.seed ~seconds:a.seconds ~keep:false);
      None
    | _ ->
      let p50, p99, _ =
        Flash.run m ~cfg ~balance:(balance ~baseline:a.baseline) ~seed:a.seed ~seconds:a.seconds ~keep:false
      in
      Some (p50, p99)
  in
  (m, end_to_end m ~sim)

(* ------------------------------------------------------------------ *)
(* Traced                                                               *)

let mean_of name ~scale =
  match Span.durations name with
  | [] -> None
  | ds -> Some (Layers.mean ds *. scale)

let set_span t metric name ~scale = Option.iter (Layers.set t metric) (mean_of name ~scale)

(* Front end and executor numbers from the traced phase's spans. *)
let query_spans t (log : Closed.trace_log) =
  set_span t "vql.parse_us" "vql.parse" ~scale:1e6;
  set_span t "analysis.check_us" "analysis.check" ~scale:1e6;
  set_span t "qproc.stats_us" "qproc.stats" ~scale:1e6;
  set_span t "qproc.plan_us" "qproc.plan" ~scale:1e6;
  set_span t "qproc.query_ms" "qproc.query" ~scale:1e3;
  let q = float_of_int (max 1 log.Closed.queries) in
  Layers.set t "qproc.rows_examined_per_row"
    (Layers.ratio (float_of_int log.Closed.rows_examined) (float_of_int log.Closed.rows_returned));
  Layers.set t "qproc.alloc_kw_per_query" (log.Closed.alloc_words /. q /. 1000.0);
  Layers.set t "qproc.bytes_shipped_per_query" (float_of_int log.Closed.bytes_shipped /. q)

(* Executor self time: the query span minus the front-end spans minus the
   triple-layer replay of the same accesses (scaled up when the replay
   budget cut it short). *)
let exec_self t (log : Closed.trace_log) =
  let total name = List.fold_left ( +. ) 0.0 (Span.durations name) in
  let q = float_of_int (max 1 log.Closed.queries) in
  let front = List.fold_left (fun s n -> s +. total n) 0.0 [ "vql.parse"; "analysis.check"; "qproc.stats"; "qproc.plan" ] in
  let triple_names = [ "triple.lookup"; "triple.range"; "triple.similar"; "triple.topn" ] in
  let replayed = List.fold_left (fun s n -> s + List.length (Span.durations n)) 0 triple_names in
  let triple = List.fold_left (fun s n -> s +. total n) 0.0 triple_names in
  let accesses = List.length log.Closed.accesses in
  let triple = if replayed > 0 then triple *. float_of_int accesses /. float_of_int replayed else 0.0 in
  Layers.set t "qproc.exec_self_ms" (Float.max 0.0 ((total "qproc.query" -. front -. triple) /. q *. 1e3))

(* The traffic layers (balancing, service queues, the traffic engine)
   run only under [Unistore.run_traffic]. flash_crowd is not a benchmark
   workload (see README.md), so point_rw's traced run replays one flash
   crowd on its own deployment for their numbers. *)
let traffic_replay t ~cfg ~seed =
  let _, _, log =
    Flash.run (Meas.create ()) ~cfg ~balance:U.default_balance_config ~seed ~seconds:0.0 ~keep:false
  in
  Flash.layer_numbers t log

let run_traced a =
  let t = Layers.create () in
  let cfg = config a.workload ~baseline:a.baseline in
  let half = a.seconds /. 2.0 in
  let ma = Meas.create () and mb = Meas.create () in
  let tally = Layers.new_tally () in
  (match a.workload with
  | "point_rw" | "analytic" ->
    let seed = part_seed a.seed 0 in
    let data = Deploy.dataset ~seed:(deploy_seed 0) ~authors:closed_authors in
    let st, _, _ = Deploy.setup { cfg with U.peers = closed_peers; seed = deploy_seed 0 } data in
    let next = closed_next a.workload ~seed data in
    Unistore_obs.Metrics.reset_histograms ~prefix:"overlay." (U.metrics st);
    let r0 = Layers.read st in
    Closed.run ma st ~next ~origins:(closed_origins a.workload) ~seconds:half ();
    Layers.add_diff tally r0 st;
    Layers.of_tally t tally ~ops:ma.Meas.ops ~writes:ma.Meas.writes ~timed_s:ma.Meas.timed_s;
    Layers.hops t st;
    let log = Closed.new_log () in
    Span.tracing := true;
    Closed.run mb st ~next ~origins:(closed_origins a.workload) ~seconds:half ~log ();
    query_spans t log;
    Layers.set t "bench.unattributed_frac" (Span.unattributed_frac ~root:"op");
    let keys, regions =
      Layers.replay_accesses t st (List.rev log.Closed.accesses) ~probe_keys:(List.rev log.Closed.probe_keys)
    in
    exec_self t log;
    Layers.replay_store t st ~keys ~regions ~dataset_triples:(List.length data.Deploy.ds.Publications.triples);
    Layers.replay_background t st;
    Layers.replay_kernel t ~events:tally.Layers.ev ~span_ms:tally.Layers.span_ms;
    if String.equal a.workload "point_rw" then traffic_replay t ~cfg ~seed:a.seed
  | "bulk_ingest" ->
    let st, data = Option.get (Ingest.run ~tally ma ~cfg ~seed:a.seed ~seconds:half ~keep:true) in
    Layers.of_tally t tally ~ops:ma.Meas.ops ~writes:ma.Meas.ops ~timed_s:ma.Meas.timed_s;
    Layers.hops t st;
    Span.tracing := true;
    ignore (Ingest.run mb ~cfg ~seed:a.seed ~seconds:half ~keep:false);
    Layers.set t "bench.unattributed_frac" (Span.unattributed_frac ~root:"op");
    Ingest.replay_bulk t ~cfg ~seed:a.seed data;
    let ds = data.Deploy.ds in
    let reads = List.map (fun (oid, _) -> Unistore_qproc.Cost.AOid oid) ds.Publications.tuples in
    let keys, regions = Layers.replay_accesses t st reads ~probe_keys:[] in
    Layers.replay_store t st ~keys ~regions ~dataset_triples:(List.length ds.Publications.triples);
    Layers.replay_background t st;
    Layers.replay_kernel t ~events:tally.Layers.ev ~span_ms:tally.Layers.span_ms
  | _ ->
    let balance = balance ~baseline:a.baseline in
    let _, _, log = Flash.run ~tally ma ~cfg ~balance ~seed:a.seed ~seconds:half ~keep:true in
    let st = Option.get log.Flash.last in
    Layers.of_tally t tally ~ops:ma.Meas.ops ~writes:0 ~timed_s:ma.Meas.timed_s;
    Layers.hops t st;
    Flash.layer_numbers t log;
    Span.tracing := true;
    ignore (Flash.run mb ~cfg ~balance ~seed:a.seed ~seconds:half ~keep:false);
    Layers.set t "bench.unattributed_frac" (Span.unattributed_frac ~root:"op");
    (* the crowd's key population, through the overlay and the stores *)
    let keys = List.filteri (fun i _ -> i < 2000) log.Flash.keys in
    let ds, _ =
      Layers.replay "overlay.lookup" keys (fun key ->
          List.length (Unistore_pgrid.Overlay.lookup_sync (Deploy.pgrid st) ~origin:0 ~key).Unistore_pgrid.Overlay.items)
    in
    Layers.set_mean t "overlay.lookup_us" ~scale:1e6 ds;
    Layers.replay_store t st ~keys ~regions:[] ~dataset_triples:log.Flash.triples;
    Layers.replay_background t st;
    Layers.replay_kernel t ~events:tally.Layers.ev ~span_ms:tally.Layers.span_ms);
  Span.tracing := false;
  Layers.set t "bench.harness_frac" (1.0 -. Layers.ratio ma.Meas.timed_s ma.Meas.phase_s);
  Layers.set t "bench.trace_overhead_frac" (1.0 -. Layers.ratio (Meas.ops_per_host_s mb) (Meas.ops_per_host_s ma));
  if not (String.equal a.spans "") then Span.write_chrome a.spans;
  let missing = List.filter (fun (k, _) -> not (Hashtbl.mem t k)) Layers.catalog in
  if missing <> [] then
    Printf.printf "# not exercised by %s (reported as 0): %s\n" a.workload
      (String.concat " " (List.map fst missing));
  Printf.printf "# spans: %d recorded%s\n" (List.length (Span.all ()))
    (if String.equal a.spans "" then "" else ", written to " ^ a.spans);
  (* correctness and counts of the traced run cover both phases *)
  let m = Meas.create () in
  m.Meas.attempted <- ma.Meas.attempted + mb.Meas.attempted;
  m.Meas.failed <- ma.Meas.failed + mb.Meas.failed;
  m.Meas.first_failure <- (match ma.Meas.first_failure with Some f -> Some f | None -> mb.Meas.first_failure);
  ( m,
    List.map
      (fun (k, unit) -> (k, Option.value ~default:0.0 (Hashtbl.find_opt t k), unit))
      Layers.catalog )

(* ------------------------------------------------------------------ *)

let () =
  let a = parse_args () in
  if not (List.mem a.workload [ "point_rw"; "analytic"; "bulk_ingest"; "flash_crowd" ]) then begin
    prerr_endline ("perfbench: unknown workload " ^ a.workload);
    exit 2
  end;
  let gc = gc_params () in
  Printf.printf "# host: nproc=%d ocaml=%s commit=%s\n" (Domain.recommended_domain_count ())
    Sys.ocaml_version a.commit;
  Printf.printf "# run: workload=%s arm=%s seed=%d seconds=%g trace=%b %s %s\n" a.workload
    (if a.baseline then "baseline" else "default")
    a.seed a.seconds a.trace (sizes a.workload) gc;
  let m, metrics = if a.trace then run_traced a else run_untraced a in
  List.iter (fun v -> Printf.printf "# timed region violation: %s\n" v) !Span.violations;
  Option.iter (fun f -> Printf.printf "# first failure: %s\n" f) m.Meas.first_failure;
  let correct = m.Meas.failed = 0 && !Span.violations = [] && m.Meas.attempted > 0 in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    m.Meas.attempted m.Meas.failed
    (String.concat ", " (List.map fmt_metric metrics))
