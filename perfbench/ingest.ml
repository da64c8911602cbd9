(* bulk_ingest: an empty deployment loaded through [Unistore.load] in
   fixed-size chunks, then one anti-entropy and one statistics-gossip
   round as background work. When the dataset is in and time remains, a
   fresh empty deployment takes the next load. One operation is one tuple
   written; host percentiles are per chunk. *)

module U = Unistore
module Publications = Unistore_workload.Publications
module Tstore = Unistore_triple.Tstore

let peers = 512
let authors = 500
let chunk_tuples = 16

(* Empty deployments created before measuring, for the set-up median. *)
let setups = 3

let chunks tuples =
  let rec go acc cur n = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | t :: tl ->
      if n = chunk_tuples then go (List.rev cur :: acc) [ t ] 1 tl else go acc (t :: cur) (n + 1) tl
  in
  go [] [] 0 tuples

(* Read every loaded tuple back by OID and compare it with what was
   written; returns the tuples that differ. *)
let read_back st tuples =
  Span.harness_step "reference check" (fun () ->
      let ts = U.tstore st in
      List.fold_left
        (fun bad (oid, fields) ->
          let got, meta = Tstore.by_oid_sync ts ~origin:0 oid in
          let norm l = List.sort compare (List.map (fun (a, v) -> Refeval.row [ Unistore.Value.S a; v ]) l) in
          let got = norm (List.map (fun (t : U.Triple.t) -> (t.U.Triple.attr, t.U.Triple.value)) got) in
          if meta.Tstore.complete && List.equal String.equal got (norm fields) then bad else bad + 1)
        0 tuples)

(* [run m ~cfg ~seed ~seconds ~keep] measures the workload into [m]:
   complete loads, each on a fresh deployment with its own dataset and
   topology, until [seconds] of wall time have passed. The load under way
   at the deadline runs to its end, so every run measures whole loads;
   chunk costs grow as the stores fill, and a cut-off load would tilt
   the numbers toward its cheap early chunks. The heap is what the first
   deployment retains once its load is done. With [keep] the last
   deployment is returned for the per-layer replay. *)
let run ?tally (m : Meas.t) ~cfg ~seed ~seconds ~keep =
  let load_seed j = (seed * 1_009) + j in
  let create j data =
    let st, dt = Deploy.create { cfg with U.peers; seed = load_seed j } data in
    m.Meas.setup_s <- dt :: m.Meas.setup_s;
    st
  in
  let data0 = Deploy.dataset ~seed:(load_seed 0) ~authors in
  for _ = 2 to setups do
    ignore (create 0 data0)
  done;
  let st0 = create 0 data0 in
  let deadline = Int64.add (Span.wall_ns ()) (Int64.of_float (seconds *. 1e9)) in
  let start = Span.now_ns () in
  let timed0 = Span.timed_total_s () in
  let load st (data : Deploy.data) =
    let reading = Option.map (fun _ -> Layers.read st) tally in
    let chunks = Span.harness_step "input generation" (fun () -> chunks data.Deploy.ds.Publications.tuples) in
    List.iter
      (fun chunk ->
        Calib.tick ();
        let want = List.fold_left (fun n (_, fields) -> n + List.length fields) 0 chunk in
        let m0 = U.messages_sent st and s0 = U.now st in
        let stored, dt =
          Span.timed (fun () ->
              Span.with_span ~op:(Meas.Samples.count m.Meas.host_ms) "op" (fun () ->
                  Span.with_span "unistore.load" (fun () -> U.load st chunk)))
        in
        Meas.Samples.add m.Meas.host_ms (dt *. 1000.0);
        Meas.Samples.add m.Meas.sim_ms (U.now st -. s0);
        m.Meas.msgs <- m.Meas.msgs + (U.messages_sent st - m0);
        let n = List.length chunk in
        Meas.count_ops m ~n ~host_s:dt;
        Meas.outcome m ~n ~bad:(if stored = want then 0 else n) (lazy "chunk not fully stored"))
      chunks;
    (* dataset in: background rounds, then read every tuple back *)
    let (), dt =
      Span.timed (fun () ->
          U.anti_entropy_round st;
          U.gossip_stats_round st)
    in
    Meas.count_ops m ~n:0 ~host_s:dt;
    (match (tally, reading) with Some tally, Some r -> Layers.add_diff tally r st | _ -> ());
    Meas.outcome m ~n:0
      ~bad:(read_back st data.Deploy.ds.Publications.tuples)
      (lazy "read-back differs from the loaded tuple")
  in
  let rec go j st data =
    load st data;
    if j = 0 then m.Meas.heap_bytes_per_peer <- Meas.retained_bytes st /. float_of_int peers;
    if Int64.compare (Span.wall_ns ()) deadline < 0 then begin
      let data = Deploy.dataset ~seed:(load_seed (j + 1)) ~authors in
      go (j + 1) (create (j + 1) data) data
    end
    else (st, data)
  in
  let last = go 0 st0 data0 in
  m.Meas.phase_s <- Span.seconds_between start (Span.now_ns ());
  m.Meas.timed_s <- Span.timed_total_s () -. timed0;
  if keep then Some last else None

(* Replay the chunks through the two batch paths below [Unistore.load],
   each on a fresh empty deployment: [Tstore.insert_bulk_sync] with the
   chunk's triples, and [Overlay.bulk_insert_sync] with their OID, A#v
   and v index entries. *)
let replay_bulk t ~cfg ~seed (data : Deploy.data) =
  let module Triple = U.Triple in
  let module Keys = Unistore_triple.Keys in
  let module Store = Unistore_pgrid.Store in
  let cfg = { cfg with U.peers; seed } in
  let chunks = chunks data.Deploy.ds.Publications.tuples in
  let triples chunk = List.concat_map (fun (oid, fields) -> Triple.tuple_to_triples ~oid fields) chunk in
  let st, _ = Deploy.create cfg data in
  let next = ref 0 in
  let ds, _ =
    Layers.replay "triple.insert_bulk" chunks (fun chunk ->
        let origin = !next in
        next := (origin + 1) mod peers;
        ignore (Tstore.insert_bulk_sync (U.tstore st) ~origin (triples chunk));
        0)
  in
  Layers.set_mean t "triple.insert_bulk_ms" ~scale:1e3 ds;
  let st, _ = Deploy.create cfg data in
  let items chunk =
    List.concat_map
      (fun (tr : Triple.t) ->
        let item_id = Triple.id tr and payload = Triple.serialize tr in
        List.map
          (fun key -> { Store.key; item_id; payload; version = 0 })
          [ Keys.oid_key tr.Triple.oid; Keys.attr_value_key tr.Triple.attr tr.Triple.value; Keys.value_key tr.Triple.value ])
      (triples chunk)
  in
  let ds, _ =
    Layers.replay "overlay.bulk_insert" chunks (fun chunk ->
        ignore (Unistore_pgrid.Overlay.bulk_insert_sync (Deploy.pgrid st) ~origin:0 ~items:(items chunk));
        0)
  in
  Layers.set_mean t "overlay.bulk_insert_ms" ~scale:1e3 ds
