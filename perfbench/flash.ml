(* flash_crowd: [Unistore.run_traffic] with the default traffic config (a
   Zipf 1.1 hot-key flash crowd of Poisson arrivals, 120 q/s base with a
   10x peak, 3 ms per-peer service time, adaptive balancing on), cut into
   short crowds so one run holds many of them. Each crowd runs on a fresh
   deployment and is one synchronous call; its host time is one host
   sample and its requests are the operations. The loop is open in
   simulated time: the arrivals are fixed by [traffic_seed], so the
   generator cannot run late. Not one of BENCHMARK.json's workloads: its
   tail latency is bimodal crowd by crowd (see README.md). *)

module U = Unistore

let peers = 128
let authors = 40

(* One crowd: 12 s of arrivals, measured after 1.5 s. Shorter crowds end
   before balancing can react (below 10 s the adaptive arm's p99 is no
   better than the static one's); longer ones leave fewer crowds per run
   for the median. *)
let duration_ms = 12_000.0
let warmup_ms = 1_500.0

let traffic_cfg ~balance ~traffic_seed =
  {
    U.default_traffic_config with
    U.traffic_duration_ms = duration_ms;
    traffic_warmup_ms = warmup_ms;
    traffic_seed;
    balance;
  }

(* What the measured phase keeps for the per-layer numbers. *)
type log = {
  mutable reports : U.traffic_report list;
  mutable keys : string list;  (* the last crowd's key population *)
  mutable triples : int;  (* and its dataset's triple count *)
  mutable last : U.t option;  (* the last deployment, when kept *)
}

(* [run m ~cfg ~balance ~seed ~seconds ~keep] measures crowds into [m]
   and returns the simulated p50 and p99: the median over crowds of each
   crowd's percentile, as [Unistore.run_traffic] reports percentiles per
   crowd, not per request. A crowd's p99 spans two orders of magnitude
   with whether balancing caught its hot keys; the median crowd is what
   a run can estimate steadily. *)
let run ?tally (m : Meas.t) ~cfg ~balance ~seed ~seconds ~keep =
  let log = { reports = []; keys = []; triples = 0; last = None } in
  let cur = ref None in
  (* crowd [i] has its own dataset, topology and arrival stream *)
  let crowd ?(record = true) i =
    let seed = (seed * 1_000_003) + i in
    let data = Deploy.dataset ~seed ~authors in
    let keys =
      Span.harness_step "input generation" (fun () ->
          List.sort_uniq String.compare data.Deploy.sample_keys)
    in
    if record then begin
      log.keys <- keys;
      log.triples <- List.length data.Deploy.ds.Unistore_workload.Publications.triples
    end;
    let st, dt, loaded = Deploy.setup { cfg with U.peers; seed } data in
    if record then m.Meas.setup_s <- dt :: m.Meas.setup_s;
    if not loaded then Meas.outcome m ~n:0 ~bad:1 (lazy "set-up load incomplete");
    cur := Some st;
    let tcfg = traffic_cfg ~balance ~traffic_seed:seed in
    let m0 = U.messages_sent st in
    let before = Layers.read st in
    let r, dt =
      Span.timed (fun () ->
          if record then
            Span.with_span ~op:i "op" (fun () ->
                Span.with_span "unistore.run_traffic" (fun () -> U.run_traffic st ~keys tcfg))
          else U.run_traffic st ~keys tcfg)
    in
    if record then Option.iter (fun tally -> Layers.add_diff tally before st) tally;
    (st, r, dt, U.messages_sent st - m0)
  in
  let p50s = ref [] and p99s = ref [] in
  let start = Span.now_ns () in
  let deadline = Int64.add (Span.wall_ns ()) (Int64.of_float (seconds *. 1e9)) in
  let timed0 = Span.timed_total_s () in
  let i = ref 0 in
  while !i = 0 || Int64.compare (Span.wall_ns ()) deadline < 0 do
    log.last <- None;
    Calib.tick ();
    let st, r, dt, msgs = crowd !i in
    let e = r.U.engine in
    Meas.Samples.add m.Meas.host_ms (dt *. 1000.0);
    p50s := e.U.Traffic.lat_p50_ms :: !p50s;
    p99s := e.U.Traffic.lat_p99_ms :: !p99s;
    m.Meas.msgs <- m.Meas.msgs + msgs;
    Meas.count_ops m ~n:e.U.Traffic.offered ~host_s:dt;
    Meas.outcome m ~n:e.U.Traffic.measured
      ~bad:(e.U.Traffic.measured - e.U.Traffic.ok)
      (lazy
        (Printf.sprintf "crowd %d: %d of %d requests not answered (%d gave up)" !i
           (e.U.Traffic.measured - e.U.Traffic.ok) e.U.Traffic.measured e.U.Traffic.giveups));
    log.reports <- r :: log.reports;
    if keep then log.last <- Some st;
    incr i
  done;
  m.Meas.phase_s <- Span.seconds_between start (Span.now_ns ());
  m.Meas.timed_s <- Span.timed_total_s () -. timed0;
  (* Same seed, same answers: replay the first crowd on a fresh deployment. *)
  cur := None;
  let _, again, _, _ = Span.harness_step "reference check" (fun () -> crowd ~record:false 0) in
  let first = List.nth log.reports (List.length log.reports - 1) in
  if not (String.equal first.U.results_digest again.U.results_digest) then
    Meas.outcome m ~n:0 ~bad:1 (lazy "results_digest differs between two runs of one crowd seed");
  (* the heap that deployment retains after its crowd *)
  Option.iter (fun st -> m.Meas.heap_bytes_per_peer <- Meas.retained_bytes st /. float_of_int peers) !cur;
  Printf.printf "# per-crowd sim p99 (ms): %s\n" (String.concat " " (List.rev_map (Printf.sprintf "%.0f") !p99s));
  (Meas.median !p50s, Meas.median !p99s, log)

(* The traffic layers' numbers, from the measured crowds' reports. *)
let layer_numbers t log =
  let rs = log.reports in
  let sum f = float_of_int (List.fold_left (fun s r -> s + f r) 0 rs) in
  let e f r = f r.U.engine in
  Layers.set t "balance.boosts_spawned" (sum (fun r -> r.U.boosts_spawned) /. float_of_int (List.length rs));
  Layers.set t "balance.hot_serve_frac"
    (Layers.ratio (sum (fun r -> r.U.hot_serves)) (sum (e (fun x -> x.U.Traffic.offered))));
  Layers.set t "net.queue_wait_ms_p99" (Meas.median (List.map (fun r -> r.U.queue_p99_ms) rs));
  Layers.set t "net.queue_delayed_frac"
    (Layers.ratio (sum (fun r -> r.U.queue_delayed)) (sum (fun r -> r.U.queue_msgs)));
  Layers.set t "traffic.giveup_frac"
    (Layers.ratio (sum (e (fun x -> x.U.Traffic.giveups))) (sum (e (fun x -> x.U.Traffic.measured))));
  Layers.set t "traffic.served_in_window_frac"
    (Layers.ratio (sum (e (fun x -> x.U.Traffic.served_in_window))) (sum (e (fun x -> x.U.Traffic.ok))))
