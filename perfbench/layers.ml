(* Per-layer numbers of a traced run: counters read around the measured
   phase, spans of the traced phase, and a replay phase that times each
   layer's public calls on the workload's own accesses and keys.

   [catalog] is the complete per-layer metric list, the same as
   BENCHMARK.json's [per_layer]. A workload that never exercises a layer
   reports 0 for it and lists it under "not exercised". *)

module U = Unistore
module Tstore = Unistore_triple.Tstore
module Keys = Unistore_triple.Keys
module Cost = Unistore_qproc.Cost
module Overlay = Unistore_pgrid.Overlay
module Store = Unistore_pgrid.Store
module Node = Unistore_pgrid.Node
module Sim = Unistore_sim.Sim
module Metrics = Unistore_obs.Metrics
module Histogram = Unistore_obs.Histogram
module Rng = Unistore_util.Rng

(* The P-Grid message kinds, as [net.sent.<kind>] counts them. *)
let msg_kinds =
  [ "ack"; "ack-batch"; "delete"; "exchange"; "found"; "hot-sync"; "insert"; "insert-batch";
    "lookup"; "multi-found"; "multi-lookup"; "probe"; "range"; "range-hit"; "replicate";
    "stat-gossip"; "sync-digest"; "sync-items"; "sync-request"; "task"; "unreplicate"; "update" ]

let catalog =
  [
    ("vql.parse_us", "us");
    ("analysis.check_us", "us");
    ("qproc.stats_us", "us");
    ("qproc.plan_us", "us");
    ("qproc.query_ms", "ms");
    ("qproc.exec_self_ms", "ms");
    ("qproc.rows_examined_per_row", "ratio");
    ("qproc.alloc_kw_per_query", "kword");
    ("qproc.bytes_shipped_per_query", "B");
    ("cache.result_hit_ratio", "ratio");
    ("cache.bind_hit_ratio", "ratio");
    ("cache.shortcut_hit_ratio", "ratio");
    ("cache.invalidations_per_write", "count");
    ("triple.lookup_us", "us");
    ("triple.range_ms", "ms");
    ("triple.similar_ms", "ms");
    ("triple.topn_us", "us");
    ("triple.items_per_access", "count");
    ("triple.insert_bulk_ms", "ms");
    ("triple.index_entries_per_triple", "count");
    ("overlay.lookup_us", "us");
    ("overlay.range_ms", "ms");
    ("overlay.multi_lookup_ms", "ms");
    ("overlay.bulk_insert_ms", "ms");
    ("overlay.hops_p50", "hops");
    ("overlay.hops_p99", "hops");
  ]
  @ List.map (fun k -> ("overlay.msgs." ^ k, "msg/op")) msg_kinds
  @ [
      ("overlay.bytes_per_op", "B");
      ("overlay.retries_per_op", "count");
      ("store.put_us", "us");
      ("store.find_us", "us");
      ("store.range_us_per_item", "us");
      ("store.remove_us", "us");
      ("store.bytes_per_triple", "B");
      ("store.items_max_over_mean", "ratio");
      ("gossip.round_ms", "ms");
      ("repair.anti_entropy_ms", "ms");
      ("balance.boosts_spawned", "count");
      ("balance.hot_serve_frac", "ratio");
      ("sim.events_per_op", "count");
      ("sim.host_us_per_event", "us");
      ("sim.kernel_ns_per_event", "ns");
      ("net.queue_wait_ms_p99", "ms");
      ("net.queue_delayed_frac", "ratio");
      ("traffic.giveup_frac", "ratio");
      ("traffic.served_in_window_frac", "ratio");
      ("gc.minor_words_per_op", "word");
      ("gc.major_collections_per_op", "count");
      ("bench.harness_frac", "ratio");
      ("bench.unattributed_frac", "ratio");
      ("bench.trace_overhead_frac", "ratio");
    ]

type t = (string, float) Hashtbl.t

let create () : t = Hashtbl.create 64
let set (t : t) k v = Hashtbl.replace t k v
let ratio a b = if b > 0.0 then a /. b else 0.0
let fi = float_of_int

(* ------------------------------------------------------------------ *)
(* Counters around a phase                                              *)

(* A deployment's counters and simulator events at one instant. *)
type reading = { counters : (string * int) list; events : int; sim_ms : float }

let read st =
  { counters = Metrics.counters (U.metrics st); events = Sim.processed (U.sim st); sim_ms = U.now st }

(* Work accumulated over one or more deployments, and the allocation of
   the timed regions since [new_tally]. *)
type tally = {
  c : (string, int) Hashtbl.t;
  mutable ev : int;
  mutable span_ms : float;  (* simulated time covered *)
  minor0 : float;
  majors0 : int;
}

let new_tally () =
  { c = Hashtbl.create 64; ev = 0; span_ms = 0.0; minor0 = !Span.timed_minor; majors0 = !Span.timed_majors }

(* Add the work [st] did since the reading [before]. *)
let add_diff tally before st =
  let after = read st in
  List.iter
    (fun (k, v) ->
      let d = v - Option.value ~default:0 (List.assoc_opt k before.counters) in
      Hashtbl.replace tally.c k (d + Option.value ~default:0 (Hashtbl.find_opt tally.c k)))
    after.counters;
  tally.ev <- tally.ev + (after.events - before.events);
  tally.span_ms <- tally.span_ms +. (after.sim_ms -. before.sim_ms)

let count tally k = fi (Option.value ~default:0 (Hashtbl.find_opt tally.c k))

(* Counter-derived layer numbers of an untraced phase of [ops]
   operations, [writes] of them writes, over [timed_s] host seconds. *)
let of_tally t tally ~ops ~writes ~timed_s =
  let ops = fi (max 1 ops) in
  let hit name =
    let h = count tally (name ^ ".hit") in
    ratio h
      (h +. count tally (name ^ ".miss") +. count tally (name ^ ".stale_version")
     +. count tally (name ^ ".stale_ttl"))
  in
  set t "cache.result_hit_ratio" (hit "cache.result");
  set t "cache.bind_hit_ratio" (hit "cache.bind");
  set t "cache.shortcut_hit_ratio" (hit "cache.shortcut");
  if writes > 0 then
    set t "cache.invalidations_per_write"
      ((count tally "cache.result.stale_version" +. count tally "cache.bind.stale_version") /. fi writes);
  List.iter (fun k -> set t ("overlay.msgs." ^ k) (count tally ("net.sent." ^ k) /. ops)) msg_kinds;
  set t "overlay.bytes_per_op" (count tally "net.bytes.sent" /. ops);
  set t "overlay.retries_per_op"
    ((count tally "retry.attempt" +. count tally "batch.retransmit") /. ops);
  set t "sim.events_per_op" (fi tally.ev /. ops);
  set t "sim.host_us_per_event" (ratio (timed_s *. 1e6) (fi tally.ev));
  set t "gc.minor_words_per_op" ((!Span.timed_minor -. tally.minor0) /. ops);
  set t "gc.major_collections_per_op" (fi (!Span.timed_majors - tally.majors0) /. ops)

let hops t st =
  match List.assoc_opt "overlay.lookup.hops" (Metrics.histograms (U.metrics st)) with
  | Some h when Histogram.count h > 0 ->
    set t "overlay.hops_p50" (Histogram.percentile h 50.0);
    set t "overlay.hops_p99" (Histogram.percentile h 99.0)
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Replays                                                              *)

(* Each replay stops after [budget_s] wall seconds. *)
let budget_s = 0.6

(* [replay name xs f] times [f x] for each [x] under a span [name], until
   the list or the budget runs out; returns the durations in seconds and
   the sum of what [f] returned. *)
let replay name xs f =
  let start = Span.wall_ns () in
  let rec go acc items = function
    | [] -> (acc, items)
    | x :: tl ->
      if Span.seconds_between start (Span.wall_ns ()) > budget_s then (acc, items)
      else begin
        let t0 = Span.now_ns () in
        let n = Span.with_span name (fun () -> f x) in
        go (Span.seconds_between t0 (Span.now_ns ()) :: acc) (items + n) tl
      end
  in
  go [] 0 xs

let mean = function [] -> 0.0 | xs -> List.fold_left ( +. ) 0.0 xs /. fi (List.length xs)
let set_mean t k ~scale ds = if ds <> [] then set t k (mean ds *. scale)

(* The executed plan steps' accesses, through the triple layer and then
   the overlay; returns the lookup keys and the key ranges they touched,
   for the store replay. *)
let replay_accesses t st (accesses : Cost.access list) ~probe_keys =
  let ts = U.tstore st and origin = 0 in
  let kind = function
    | Cost.AOid _ | Cost.AAttrValue _ | Cost.AValue _ -> `Lookup
    | Cost.AAttrRange _ | Cost.AAttrAll _ | Cost.AAttrPrefix _ -> `Range
    | Cost.ASim _ | Cost.ASubstring _ -> `Similar
    | Cost.ATopN _ -> `Topn
    | Cost.ABroadcast -> `Other
  in
  let triple (a : Cost.access) =
    let n (items, _) = List.length items in
    match a with
    | Cost.AOid o -> n (Tstore.by_oid_sync ts ~origin o)
    | Cost.AAttrValue (attr, v) -> n (Tstore.by_attr_value_sync ts ~origin ~attr v)
    | Cost.AValue v -> n (Tstore.by_value_sync ts ~origin v)
    | Cost.AAttrRange (attr, Some lo, Some hi) -> n (Tstore.by_attr_range_sync ts ~origin ~attr ~lo ~hi)
    | Cost.AAttrRange (attr, _, _) | Cost.AAttrAll attr -> n (Tstore.by_attr_all_sync ts ~origin ~attr)
    | Cost.AAttrPrefix (attr, p) -> n (Tstore.by_attr_string_prefix_sync ts ~origin ~attr ~string_prefix:p)
    | Cost.ASim (attr, pattern, d) -> n (Tstore.similar_sync ts ~origin ?attr ~pattern ~d ())
    | Cost.ASubstring (attr, pattern) -> n (Tstore.containing_sync ts ~origin ?attr ~pattern ())
    | Cost.ATopN (attr, k) -> n (Tstore.top_n_by_attr_sync ts ~origin ~attr ~n:k ())
    | Cost.ABroadcast -> 0
  in
  let by k = List.filter (fun a -> kind a = k) accesses in
  let all_items = ref 0 and all_n = ref 0 in
  let run name k scale metric =
    let ds, items = replay name (by k) triple in
    all_items := !all_items + items;
    all_n := !all_n + List.length ds;
    set_mean t metric ~scale ds
  in
  run "triple.lookup" `Lookup 1e6 "triple.lookup_us";
  run "triple.range" `Range 1e3 "triple.range_ms";
  run "triple.similar" `Similar 1e3 "triple.similar_ms";
  run "triple.topn" `Topn 1e6 "triple.topn_us";
  if !all_n > 0 then set t "triple.items_per_access" (fi !all_items /. fi !all_n);
  (* the same keys and regions, one layer down *)
  let ov = Deploy.pgrid st in
  let lookup_key = function
    | Cost.AOid o -> Some (Keys.oid_key o)
    | Cost.AAttrValue (a, v) -> Some (Keys.attr_value_key a v)
    | Cost.AValue v -> Some (Keys.value_key v)
    | _ -> None
  in
  let region = function
    | Cost.AAttrRange (a, Some lo, Some hi) -> Some (Keys.attr_range a ~lo ~hi)
    | Cost.AAttrRange (a, _, _) | Cost.AAttrAll a ->
      let p = Keys.attr_prefix a in
      Some (p, p ^ "\255")
    | _ -> None
  in
  let keys = List.filter_map lookup_key accesses and regions = List.filter_map region accesses in
  let ds, _ = replay "overlay.lookup" keys (fun key -> List.length (Overlay.lookup_sync ov ~origin ~key).Overlay.items) in
  set_mean t "overlay.lookup_us" ~scale:1e6 ds;
  let ds, _ =
    replay "overlay.range" regions (fun (lo, hi) ->
        List.length (Overlay.range_sync ov ~origin ~lo ~hi ()).Overlay.items)
  in
  set_mean t "overlay.range_ms" ~scale:1e3 ds;
  let ds, _ =
    replay "overlay.multi_lookup" probe_keys (fun keys ->
        List.length (fst (Overlay.multi_lookup_sync ov ~origin ~keys)))
  in
  set_mean t "overlay.multi_lookup_ms" ~scale:1e3 ds;
  (keys, regions)

(* The per-peer stores, rebuilt from the loaded peers' contents: puts of
   every item, finds of the workload's keys on the responsible peer's
   store, its ranges on every store, and removes of every 8th item. *)
let replay_store t st ~keys ~regions ~dataset_triples =
  let ov = Deploy.pgrid st in
  let nodes = Overlay.nodes ov in
  let sizes = List.map (fun (n : Node.t) -> Store.size n.Node.store) nodes in
  let total = List.fold_left ( + ) 0 sizes in
  let bytes, entries =
    List.fold_left
      (fun (b, e) (n : Node.t) ->
        let s = Store.stats n.Node.store in
        (b + s.Store.bytes, e + s.Store.triples))
      (0, 0) nodes
  in
  set t "store.bytes_per_triple" (ratio (fi bytes) (fi entries));
  set t "store.items_max_over_mean"
    (ratio (fi (List.fold_left max 0 sizes)) (fi total /. fi (max 1 (List.length sizes))));
  set t "triple.index_entries_per_triple" (ratio (fi total) (fi dataset_triples));
  let rebuilt = Hashtbl.create 256 in
  let put_s = ref 0.0 and puts = ref 0 in
  List.iter
    (fun (n : Node.t) ->
      let items = Store.to_list n.Node.store in
      let s = Store.create () in
      let t0 = Span.now_ns () in
      Span.with_span "store.put" (fun () -> List.iter (fun it -> ignore (Store.put s it)) items);
      put_s := !put_s +. Span.seconds_between t0 (Span.now_ns ());
      puts := !puts + List.length items;
      Hashtbl.replace rebuilt n.Node.id (s, items))
    nodes;
  if !puts > 0 then set t "store.put_us" (!put_s *. 1e6 /. fi !puts);
  let finds =
    List.filter_map
      (fun key ->
        match Overlay.responsible ov key with
        | n :: _ -> Option.map (fun (s, _) -> (s, key)) (Hashtbl.find_opt rebuilt n.Node.id)
        | [] -> None)
      keys
  in
  let ds, _ = replay "store.find" finds (fun (s, key) -> List.length (Store.find s key)) in
  set_mean t "store.find_us" ~scale:1e6 ds;
  let stores = Hashtbl.fold (fun _ (s, _) acc -> s :: acc) rebuilt [] in
  let ds, items =
    replay "store.range" regions (fun (lo, hi) ->
        List.fold_left (fun n s -> n + List.length (Store.range s ~lo ~hi)) 0 stores)
  in
  if items > 0 then set t "store.range_us_per_item" (List.fold_left ( +. ) 0.0 ds *. 1e6 /. fi items);
  let removes =
    Hashtbl.fold
      (fun _ (s, items) acc ->
        List.filteri (fun i _ -> i mod 8 = 0) items |> List.map (fun it -> (s, it)) |> List.rev_append acc)
      rebuilt []
  in
  let ds, _ =
    replay "store.remove" removes (fun (s, (it : Store.item)) ->
        Store.remove s ~key:it.Store.key ~item_id:it.Store.item_id;
        1)
  in
  set_mean t "store.remove_us" ~scale:1e6 ds

(* Background rounds, timed once each on the loaded deployment. *)
let replay_background t st =
  let once name f =
    let t0 = Span.now_ns () in
    Span.with_span name f;
    Span.seconds_between t0 (Span.now_ns ()) *. 1e3
  in
  set t "gossip.round_ms" (once "gossip.round" (fun () -> U.gossip_stats_round st));
  set t "repair.anti_entropy_ms" (once "repair.anti_entropy" (fun () -> U.anti_entropy_round st))

(* The kernel alone: [events] no-op events spread uniformly at random
   over [span_ms] of simulated time, scheduled and run. *)
let replay_kernel t ~events ~span_ms =
  let events = min events 1_000_000 in
  if events > 0 then begin
    let sim = Sim.create () and rng = Rng.create 7 in
    let times = Array.init events (fun _ -> Rng.float rng *. span_ms) in
    let noop () = () in
    let t0 = Span.now_ns () in
    Span.with_span "sim.kernel" (fun () ->
        Array.iter (fun time -> Sim.schedule_at sim ~time noop) times;
        Sim.run_all sim);
    set t "sim.kernel_ns_per_event" (Span.seconds_between t0 (Span.now_ns ()) *. 1e9 /. fi events)
  end
