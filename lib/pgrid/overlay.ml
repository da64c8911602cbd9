module Bitkey = Unistore_util.Bitkey
module Rng = Unistore_util.Rng
module Metrics = Unistore_obs.Metrics
module Histogram = Unistore_obs.Histogram
module Shortcuts = Unistore_cache.Shortcuts
module Statcache = Unistore_cache.Statcache

type result = {
  items : Store.item list;
  hops : int;
  peers_hit : int;
  complete : bool;
  completeness : float;
      (* coverage estimate in [0,1]: regions reached / regions addressed
         (answered tokens for showers, acked keys for batches, all or
         nothing for single-destination requests); 1.0 iff [complete] *)
  latency : float;
}

type pending =
  | Psingle of {
      op : string;  (* metric label: lookup/insert/update/delete *)
      origin : int;
      resend : unit -> unit;
      mutable attempts : int;
      mutable via : int option;
          (* the peer a routing shortcut forwarded to, if one was used:
             a timeout invalidates that peer's shortcut entries before
             the retry falls back to greedy routing *)
      started : float;
      k : result -> unit;
    }
  | Pmulti of {
      op : string;  (* metric label: range/prefix/broadcast *)
      origin : int;
      expected : (int, unit) Hashtbl.t;  (* message tokens announced as forwards *)
      received : (int, unit) Hashtbl.t;  (* tokens whose hit arrived *)
      mutable missing : int;  (* |expected \ received| *)
      mutable peers : (int, unit) Hashtbl.t;  (* distinct peers that reported *)
      mutable items : Store.item list;
      mutable hops : int;
      mutable resend : (unit -> unit) option;  (* re-issue the whole shower *)
      mutable attempts : int;
      mutable wave_floor : int;
          (* tokens below this belong to abandoned waves: a retry resets
             the termination accounting and only counts tokens minted by
             the new wave, so stragglers from a half-dead old wave cannot
             wedge completion (their rows are still salvaged) *)
      started : float;
      k : result -> unit;
    }
  | Pbatch of {
      op : string;  (* metric label: bulk-insert/multi-lookup *)
      origin : int;
      total : int;  (* batch size, for the acked/total coverage estimate *)
      unacked : (string, unit) Hashtbl.t;  (* keys no region acked yet *)
      resend : unit -> unit;  (* selective retransmit of unacked keys *)
      mutable attempts : int;
      mutable hops : int;
      mutable regions : int;  (* per-region ack messages received *)
      mutable items : Store.item list;
      on_ack : string -> Store.item list -> unit;  (* per-key payload *)
      started : float;
      k : result -> unit;
    }

(* One in-network aggregation buffer for a shower range: the interior
   node that spawned [waiting] merges those children's hits into its own
   before replying to [agg_parent]. Shared (aliased) across the entries
   of [t.aggs] for its waiting tokens. *)
type agg = {
  agg_rid : int;
  agg_token : int;  (* the token echoed upward by the merged hit *)
  agg_parent : int;
  agg_origin : int;
  agg_owner : int;
  mutable waiting : int list;  (* child tokens not yet merged *)
  mutable carried : int list;  (* tokens announced upward unmerged *)
  mutable agg_items : Store.item list;
  mutable agg_hops : int;
  mutable flushed : bool;
}

type t = {
  sim : Sim.t;
  net : Message.t Net.t;
  mutable config : Config.t;
  rng : Rng.t;
  (* Node arena: dense array indexed by peer id (ids are minted 0..n-1
     by Build/join). Replaces an id-keyed hashtable so the dispatcher
     and routing helpers resolve peers with one array probe. *)
  mutable node_arena : Node.t option array;
  mutable n_nodes : int;
  mutable max_node_id : int;
  (* Ascending node list, rebuilt lazily: gossip rounds walk it once per
     round; the arena only grows, so adds just invalidate. *)
  mutable nodes_cache : Node.t list option;
  pending : (int, pending) Hashtbl.t;
  aggs : (int, agg) Hashtbl.t;  (* child token -> its parent's buffer *)
  mutable next_rid : int;
  mutable metrics : Metrics.t option;
  mutable read_observer : (origin:int -> Store.item list -> unit) option;
}

let create sim ~latency ~rng ?(drop = 0.0) ~config () =
  let rng = Rng.split rng in
  let net = Net.create sim ~latency ~rng ~drop ~size:Message.size ~kind:Message.kind ~corr:Message.corr () in
  {
    sim;
    net;
    config;
    rng;
    node_arena = [||];
    n_nodes = 0;
    max_node_id = -1;
    nodes_cache = None;
    pending = Hashtbl.create 64;
    aggs = Hashtbl.create 64;
    next_rid = 0;
    metrics = None;
    read_observer = None;
  }

let sim t = t.sim
let net t = t.net
let config t = t.config
let rng t = t.rng

let set_metrics t m =
  t.metrics <- m;
  Net.set_metrics t.net m

let metrics t = t.metrics
let set_read_observer t f = t.read_observer <- f

(* Histogram bucket ladders chosen for the quantities' natural ranges:
   hop counts are O(log n) (unit buckets resolve them exactly), retries
   are bounded by [config.retries], fan-out can reach the full overlay. *)
let hop_buckets = Histogram.linear ~lo:0.0 ~step:1.0 ~n:33
let retry_buckets = Histogram.linear ~lo:0.0 ~step:1.0 ~n:9
let fanout_buckets = [ 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256.; 512.; 1024.; 2048. ]

let find_node t id =
  if id >= 0 && id <= t.max_node_id then t.node_arena.(id) else None

let node t id =
  match find_node t id with
  | Some n -> n
  | None -> invalid_arg (Printf.sprintf "Overlay.node: unknown peer %d" id)

let nodes t =
  match t.nodes_cache with
  | Some l -> l
  | None ->
    let l = ref [] in
    for id = t.max_node_id downto 0 do
      match t.node_arena.(id) with Some n -> l := n :: !l | None -> ()
    done;
    t.nodes_cache <- Some !l;
    !l

let node_count t = t.n_nodes

let depth t =
  let d = ref 0 in
  for id = 0 to t.max_node_id do
    match t.node_arena.(id) with
    | Some n -> d := max !d (Bitkey.length n.Node.path)
    | None -> ()
  done;
  !d

let responsible t key = List.filter (fun n -> Node.covers n key) (nodes t)

let kill t id = Net.kill t.net id
let revive t id = Net.revive t.net id
let alive t id = Net.is_alive t.net id

(* Swap the live parameter set (the traffic engine applies its
   balancing arm to an already-built deployment this way). Shortcut
   spread mode is per-node cache state, so re-propagate it. *)
let set_config t config =
  t.config <- config;
  List.iter
    (fun n -> Shortcuts.set_spread n.Node.shortcuts config.Config.spread_load)
    (nodes t)

let fresh_rid t =
  let rid = t.next_rid in
  t.next_rid <- rid + 1;
  rid

(* ------------------------------------------------------------------ *)
(* Key intervals: inclusive lo, exclusive optional hi                   *)

let interval_intersect (lo1, hi1) (lo2, hi2) =
  let lo = if String.compare lo1 lo2 >= 0 then lo1 else lo2 in
  let hi =
    match (hi1, hi2) with
    | None, h | h, None -> h
    | Some a, Some b -> Some (if String.compare a b <= 0 then a else b)
  in
  match hi with Some h when String.compare lo h >= 0 -> None | _ -> Some (lo, hi)

(* Exclusive upper bound capturing all keys <= hi (no byte string lies
   strictly between hi and hi ^ "\x00"). *)
let after_inclusive hi = Some (hi ^ "\x00")

(* ------------------------------------------------------------------ *)
(* Result assembly                                                     *)

let dedupe_items items =
  let tbl = Hashtbl.create (List.length items) in
  List.iter
    (fun (i : Store.item) ->
      let k = (i.key, i.item_id) in
      match Hashtbl.find_opt tbl k with
      | Some (j : Store.item) when j.version >= i.version -> ()
      | _ -> Hashtbl.replace tbl k i)
    items;
  Hashtbl.fold (fun _ i acc -> i :: acc) tbl []
  |> List.sort (fun (a : Store.item) b ->
         match String.compare a.key b.key with 0 -> String.compare a.item_id b.item_id | c -> c)

let record_single t (op : string) ~hops ~attempts ~latency ~complete =
  match t.metrics with
  | None -> ()
  | Some m ->
    Metrics.observe m ~buckets:hop_buckets ("overlay." ^ op ^ ".hops") (float_of_int hops);
    Metrics.observe m ~buckets:retry_buckets ("overlay." ^ op ^ ".retries") (float_of_int attempts);
    Metrics.observe m ("overlay." ^ op ^ ".latency_ms") latency;
    Metrics.incr m ("overlay." ^ op ^ if complete then ".ok" else ".incomplete")

let record_multi t (op : string) ~hops ~peers_hit ~latency ~complete =
  match t.metrics with
  | None -> ()
  | Some m ->
    Metrics.observe m ~buckets:hop_buckets ("overlay." ^ op ^ ".hops") (float_of_int hops);
    Metrics.observe m ~buckets:fanout_buckets ("overlay." ^ op ^ ".fanout")
      (float_of_int peers_hit);
    Metrics.observe m ("overlay." ^ op ^ ".latency_ms") latency;
    Metrics.incr m ("overlay." ^ op ^ if complete then ".ok" else ".incomplete")

let cache_incr t ?by name =
  match t.metrics with Some m -> Metrics.incr m ?by name | None -> ()

(* An operation is finishing without full coverage: leave an explicit
   partial-result marker in the trace (correlated to the request id) so
   trace linting can tell "crash handled by graceful degradation" from
   "crash silently swallowed". *)
let mark_partial t ~rid ~origin =
  cache_incr t "fault.partial";
  match Net.trace t.net with
  | Some tr -> Trace.mark tr ~corr:rid ~time:(Sim.now t.sim) ~src:origin ~kind:"fault.partial" ()
  | None -> ()

(* Crash a peer: unlike {!kill} (which merely stops message delivery
   and keeps state intact for {!revive}), a crash also loses the
   peer's volatile state — the whole store for in-memory backends, the
   torn log tail (a [keep_frac] fraction of log bytes survives) for the
   log backend, and any boost-replica copy. The peer stays dead until
   {!revive}; on revival, anti-entropy/{!Repair.round} reconcile the
   lost delta from the replica group. Returns the number of items that
   survived locally (log replay). *)
let crash t ?keep_frac id =
  let n = node t id in
  Net.kill t.net id;
  Node.clear_hot n;
  let recovered = Store.crash_restart ?keep_frac n.Node.store in
  Node.bump_epoch n;
  cache_incr t "fault.crash";
  recovered

(* Export per-backend storage footprint as gauges, summed over alive
   peers: [store.bytes] (the deterministic memory-model estimate, same
   counter the compression tests assert on), [store.items], and
   [store.log_bytes] (on-disk segment bytes; 0 unless the log backend
   is active). Called by benchmarks before snapshotting metrics. *)
let refresh_store_gauges t =
  match t.metrics with
  | None -> ()
  | Some m ->
    let bytes = ref 0 and items = ref 0 and log_bytes = ref 0 in
    List.iter
      (fun n ->
        if Net.is_alive t.net n.Node.id then begin
          let s = Store.stats n.Node.store in
          bytes := !bytes + s.Store.bytes;
          items := !items + s.Store.triples;
          log_bytes := !log_bytes + Store.log_bytes n.Node.store
        end)
      (nodes t);
    Metrics.set_gauge m "store.bytes" (float_of_int !bytes);
    Metrics.set_gauge m "store.items" (float_of_int !items);
    Metrics.set_gauge m "store.log_bytes" (float_of_int !log_bytes)

let finish_single t rid ~items ~hops ~complete =
  match Hashtbl.find_opt t.pending rid with
  | Some (Psingle p) ->
    Hashtbl.remove t.pending rid;
    let latency = Sim.now t.sim -. p.started in
    record_single t p.op ~hops ~attempts:p.attempts ~latency ~complete;
    if not complete then mark_partial t ~rid ~origin:p.origin;
    let items = dedupe_items items in
    (match t.read_observer with
    | Some f when complete && String.equal p.op "lookup" -> f ~origin:p.origin items
    | _ -> ());
    p.k
      {
        items;
        hops;
        peers_hit = 1;
        complete;
        completeness = (if complete then 1.0 else 0.0);
        latency;
      }
  | _ -> ()

let finish_multi t rid ~complete =
  match Hashtbl.find_opt t.pending rid with
  | Some (Pmulti p) ->
    Hashtbl.remove t.pending rid;
    let latency = Sim.now t.sim -. p.started in
    let peers_hit = Hashtbl.length p.peers in
    record_multi t p.op ~hops:p.hops ~peers_hit ~latency ~complete;
    if complete && t.config.adaptive_timeout then (
      match find_node t p.origin with
      | Some me -> Rtt.observe me.Node.rtt ~cls:p.op latency
      | None -> ());
    if not complete then mark_partial t ~rid ~origin:p.origin;
    (* Coverage = answered tokens / announced tokens: each token stands
       for one addressed region of the shower split tree. *)
    let expected = Hashtbl.length p.expected in
    let completeness =
      if complete || expected = 0 then if complete then 1.0 else 0.0
      else float_of_int (expected - max 0 p.missing) /. float_of_int expected
    in
    p.k { items = dedupe_items p.items; hops = p.hops; peers_hit; complete; completeness; latency }
  | _ -> ()

(* Termination detection is order-independent: every Range/Probe message
   carries a unique token; its receiver's hit echoes that token and names
   the tokens of the messages it forwarded in turn. The operation is done
   when every announced token has been answered — a grandchild's hit
   racing past its parent's (easy under heavy-tailed wide-area latencies)
   cannot end the operation early, and a peer participating several times
   (router now, processor later, as in sequential traversals) is counted
   per message. *)
let deliver_hit t rid ~from ~token ~items ~targets ~hops =
  match Hashtbl.find_opt t.pending rid with
  | Some (Pmulti p) when token < p.wave_floor ->
    (* Straggler from an abandoned wave: salvage its rows, but keep its
       tokens out of the live wave's termination accounting. *)
    Hashtbl.replace p.peers from ();
    p.items <- List.rev_append items p.items;
    p.hops <- max p.hops hops
  | Some (Pmulti p) ->
    Hashtbl.replace p.peers from ();
    if not (Hashtbl.mem p.received token) then begin
      Hashtbl.replace p.received token ();
      if Hashtbl.mem p.expected token then p.missing <- p.missing - 1
      else Hashtbl.replace p.expected token ()
    end;
    List.iter
      (fun q ->
        if not (Hashtbl.mem p.expected q) then begin
          Hashtbl.replace p.expected q ();
          if not (Hashtbl.mem p.received q) then p.missing <- p.missing + 1
        end)
      targets;
    p.items <- List.rev_append items p.items;
    p.hops <- max p.hops hops;
    if p.missing <= 0 then finish_multi t rid ~complete:true
  | _ -> ()

(* The base deadline for one attempt of [cls] issued by [origin]: the
   origin's EWMA latency estimate ({!Rtt}) when adaptive timeouts are
   on and warm — sharpest via the shortcut target [via] when one
   carried the request — clamped into [min_timeout_ms, timeout_ms].
   Cold trackers (and adaptive off) fall back to the fixed
   [timeout_ms], so this degrades to the classic behavior. *)
let deadline_base t ~origin ~cls ~via =
  if not t.config.adaptive_timeout then t.config.timeout_ms
  else
    match find_node t origin with
    | Some me ->
      Rtt.deadline me.Node.rtt ?peer:via ~cls ~fallback:t.config.timeout_ms
        ~min_ms:t.config.min_timeout_ms ~max_ms:t.config.timeout_ms ()
    | None -> t.config.timeout_ms

(* Retry [n] waits [base * retry_backoff^n], up to [retry_jitter]
   fractional jitter either way. Exponential backoff rides out multi-wave
   churn (a replica group wholly down now is likely partly back later);
   jitter desynchronizes the retry storm after a crash wave. *)
let retry_delay t ~base ~attempt =
  let d = base *. (t.config.retry_backoff ** float_of_int attempt) in
  let j = t.config.retry_jitter in
  if j <= 0.0 then d else d *. (1.0 +. Rng.float_in t.rng (-.j) j)

(* Feed one successfully completed exchange into the origin's latency
   tracker. Give-ups are never observed (Karn's rule), so the estimate
   is not dragged up by its own timeouts. *)
let observe_rtt t (me : Node.t) rid ~peer =
  if t.config.adaptive_timeout then
    match Hashtbl.find_opt t.pending rid with
    | Some (Psingle p) ->
      Rtt.observe me.Node.rtt ~peer ~cls:p.op (Sim.now t.sim -. p.started)
    | Some (Pbatch _) | Some (Pmulti _) | None -> ()

let arm_single_timeout t rid =
  let rec arm ~attempt =
    let base =
      match Hashtbl.find_opt t.pending rid with
      | Some (Psingle p) -> deadline_base t ~origin:p.origin ~cls:p.op ~via:p.via
      | _ -> t.config.timeout_ms
    in
    Sim.schedule t.sim ~delay:(retry_delay t ~base ~attempt) (fun () ->
        match Hashtbl.find_opt t.pending rid with
        | Some (Psingle p) ->
          if p.attempts < t.config.retries then begin
            p.attempts <- p.attempts + 1;
            (match t.metrics with
            | Some m ->
              Metrics.incr m "overlay.resend";
              Metrics.incr m "retry.attempt"
            | None -> ());
            (* If a shortcut carried this request, distrust its target:
               drop that peer's entries so the retry routes greedily. *)
            (match p.via with
            | Some peer ->
              (match find_node t p.origin with
              | Some me ->
                let n = Shortcuts.invalidate_peer me.Node.shortcuts peer in
                if n > 0 then cache_incr t ~by:n "cache.shortcut.invalidate"
              | None -> ());
              p.via <- None
            | None -> ());
            p.resend ();
            arm ~attempt:p.attempts
          end
          else begin
            cache_incr t "retry.giveup";
            finish_single t rid ~items:[] ~hops:0 ~complete:false
          end
        | _ -> ())
  in
  arm ~attempt:0

(* Shower timeouts retry like single requests do, but a shower has no
   single destination to resend to: the retry abandons the old wave's
   token accounting wholesale and re-issues the operation from the
   origin, whose routing (with failover) now steers around the peers
   that ate the first wave. *)
let arm_multi_timeout t rid =
  let rec arm ~attempt =
    let base =
      match Hashtbl.find_opt t.pending rid with
      | Some (Pmulti p) -> deadline_base t ~origin:p.origin ~cls:p.op ~via:None
      | _ -> t.config.timeout_ms
    in
    Sim.schedule t.sim ~delay:(retry_delay t ~base ~attempt) (fun () ->
        match Hashtbl.find_opt t.pending rid with
        | Some (Pmulti p) -> (
          match p.resend with
          | Some resend when p.attempts < t.config.retries ->
            p.attempts <- p.attempts + 1;
            (match t.metrics with
            | Some m ->
              Metrics.incr m "overlay.resend";
              Metrics.incr m "retry.attempt"
            | None -> ());
            p.wave_floor <- t.next_rid;
            Hashtbl.reset p.expected;
            Hashtbl.reset p.received;
            p.missing <- 0;
            resend ();
            arm ~attempt:p.attempts
          | _ ->
            cache_incr t "retry.giveup";
            finish_multi t rid ~complete:false)
        | _ -> ())
  in
  arm ~attempt:0

let finish_batch t rid ~complete =
  match Hashtbl.find_opt t.pending rid with
  | Some (Pbatch p) ->
    Hashtbl.remove t.pending rid;
    let latency = Sim.now t.sim -. p.started in
    record_multi t p.op ~hops:p.hops ~peers_hit:p.regions ~latency ~complete;
    if complete && t.config.adaptive_timeout then (
      match find_node t p.origin with
      | Some me -> Rtt.observe me.Node.rtt ~cls:p.op latency
      | None -> ());
    if not complete then mark_partial t ~rid ~origin:p.origin;
    (* Coverage = acked keys / batch keys. *)
    let completeness =
      if complete || p.total = 0 then if complete then 1.0 else 0.0
      else float_of_int (p.total - Hashtbl.length p.unacked) /. float_of_int p.total
    in
    p.k
      {
        items = dedupe_items p.items;
        hops = p.hops;
        peers_hit = p.regions;
        complete;
        completeness;
        latency;
      }
  | _ -> ()

let arm_batch_timeout t rid =
  let rec arm ~attempt =
    let base =
      match Hashtbl.find_opt t.pending rid with
      | Some (Pbatch p) -> deadline_base t ~origin:p.origin ~cls:p.op ~via:None
      | _ -> t.config.timeout_ms
    in
    Sim.schedule t.sim ~delay:(retry_delay t ~base ~attempt) (fun () ->
        match Hashtbl.find_opt t.pending rid with
        | Some (Pbatch p) ->
          if p.attempts < t.config.retries then begin
            p.attempts <- p.attempts + 1;
            (match t.metrics with
            | Some m ->
              Metrics.incr m "overlay.resend";
              Metrics.incr m "retry.attempt"
            | None -> ());
            cache_incr t "batch.retransmit";
            p.resend ();
            arm ~attempt:p.attempts
          end
          else begin
            cache_incr t "retry.giveup";
            finish_batch t rid ~complete:false
          end
        | _ -> ())
  in
  arm ~attempt:0

(* Send an aggregation buffer's merged hit upward. [reason] is
   ["complete"] (every buffered child answered) or ["timeout"] (loss or
   churn below): leftover waiting tokens travel as targets so the origin
   still accounts for them — their hits, if any straggle in later, find
   no buffer and are relayed home. *)
let flush_agg t (a : agg) ~reason =
  if not a.flushed then begin
    a.flushed <- true;
    List.iter (fun tok -> Hashtbl.remove t.aggs tok) a.waiting;
    if not (Net.is_alive t.net a.agg_owner) then
      (* The buffering peer was killed while holding child tokens: a dead
         peer cannot transmit its merged hit. Dropping the buffer (rather
         than sending from a corpse) leaves those tokens unanswered at
         the origin, whose own timeout then finishes the operation as
         explicitly partial — termination accounting never wedges on a
         crashed aggregator. *)
      cache_incr t "fault.agg.dead_flush"
    else begin
      cache_incr t ("batch.agg.flush." ^ reason);
      Net.send t.net ~src:a.agg_owner ~dst:a.agg_parent
        (Message.RangeHit
           {
             rid = a.agg_rid;
             token = a.agg_token;
             items = a.agg_items;
             targets = a.waiting @ a.carried;
             origin = a.agg_origin;
             hops = a.agg_hops;
           })
    end
  end

(* ------------------------------------------------------------------ *)
(* Routing                                                             *)

(* Replica failover: every ref at this level is dead, so stand in a live
   member of a dead ref's replica group. Replica-group membership spreads
   with the exchange/join gossip, so a peer plausibly knows its refs'
   replicas; P-Grid's own fault-tolerance story is exactly that any
   replica of the addressed region can serve. *)
let failover_candidates t refs =
  List.concat_map
    (fun r ->
      match find_node t r with
      | Some nd -> List.filter (Net.is_alive t.net) nd.Node.replicas
      | None -> [])
    refs
  |> List.sort_uniq compare

(* Peers are assumed to detect failures of their direct references (via
   keep-alive pings, as deployed DHTs do), so routing prefers alive refs;
   if every ref of a level looks dead we fail over to a live replica of
   one of them (and learn it as a ref); with failover off — or no replica
   alive either — we still try one, and the request times out and
   retries. *)
let choose_ref t (me : Node.t) level =
  let refs = Node.refs_at me level in
  let candidates, failing_over =
    match List.filter (Net.is_alive t.net) refs with
    | [] when t.config.failover -> (
      match failover_candidates t refs with [] -> (refs, false) | alts -> (alts, true))
    | [] -> (refs, false)
    | alive -> (alive, false)
  in
  let chosen =
    match candidates with
    | [] -> None
    | refs when t.config.proximity_routing ->
    let lat = Net.latency t.net in
      let best =
        List.fold_left
          (fun acc p ->
            let c = Latency.base lat ~src:me.id ~dst:p in
            match acc with Some (_, c0) when c0 <= c -> acc | _ -> Some (p, c))
          None refs
      in
      Option.map fst best
    | refs -> Some (Rng.pick_list t.rng refs)
  in
  (match chosen with
  | Some p when failing_over ->
    cache_incr t "retry.failover";
    (* Learn the stand-in as a real reference: routing self-heals instead
       of re-deriving the failover on every message. *)
    Node.add_ref me ~level p ~cap:t.config.refs_per_level
  | _ -> ());
  chosen

(* [`Local] if [me] covers [key]: greedy prefix routing forwards at the
   first level where the key branches away from [me]'s path. *)
let route_step t (me : Node.t) key =
  let len = Bitkey.length me.path in
  let rec go l =
    if l >= len then `Local
    else if Node.key_side me ~level:l key <> Bitkey.get me.path l then begin
      match choose_ref t me l with Some p -> `Forward p | None -> `Stuck
    end
    else go (l + 1)
  in
  go 0

let too_far t hops = hops >= t.config.max_hops

(* ------------------------------------------------------------------ *)
(* Routing shortcuts (lib/cache level 1)                               *)

(* Record that [peer] answered for [region] — called at the origin when
   a [Found]/[Ack] reply arrives. *)
let learn_shortcut t (me : Node.t) ~peer ~region:(lo, hi) =
  if peer <> me.Node.id && Shortcuts.capacity me.Node.shortcuts > 0 then begin
    Shortcuts.learn me.Node.shortcuts ~lo ~hi ~peer;
    cache_incr t "cache.shortcut.learn"
  end

let set_via t rid peer =
  match Hashtbl.find_opt t.pending rid with
  | Some (Psingle p) -> p.via <- Some peer
  | _ -> ()

(* Consult the origin's learned shortcuts for a single direct hop to the
   responsible peer. A hit pointing at a dead peer invalidates that
   peer's entries on the spot (the same failure-detection assumption as
   [choose_ref]'s alive filter). *)
let consult_shortcut t (me : Node.t) ~rid key =
  if Shortcuts.capacity me.Node.shortcuts = 0 then None
  else
    match Shortcuts.find me.Node.shortcuts ~key with
    | Some p when p <> me.Node.id && Net.is_alive t.net p ->
      cache_incr t "cache.shortcut.hit";
      set_via t rid p;
      Some p
    | Some p ->
      let n = Shortcuts.invalidate_peer me.Node.shortcuts p in
      cache_incr t ~by:(max 1 n) "cache.shortcut.invalidate";
      cache_incr t "cache.shortcut.miss";
      None
    | None ->
      cache_incr t "cache.shortcut.miss";
      None

(* One routing decision for single-destination requests: greedy prefix
   routing, with the origin's shortcut cache consulted on the first hop.
   A shortcut hit forwards straight to the learned responsible peer —
   one hop instead of O(depth) — and never revisits intermediate peers,
   so the [hops <= depth] bound still holds on the cached path. *)
let next_hop t (me : Node.t) ~rid ~origin ~hops key =
  match route_step t me key with
  | `Local -> `Local
  | (`Forward _ | `Stuck) as step -> (
    if me.id = origin && hops = 0 then
      match consult_shortcut t me ~rid key with Some p -> `Forward p | None -> step
    else step)

(* ------------------------------------------------------------------ *)
(* Handlers: each takes the acting node and may be invoked directly     *)
(* (origin-side) or from the message dispatcher.                        *)

(* The serving set an owner advertises on its replies: its current
   boost replicas (origins in spread mode learn them all and rotate). *)
let owner_spread t (me : Node.t) =
  if t.config.hot_replication && me.Node.boosts <> [] then me.Node.boosts else []

let handle_lookup t (me : Node.t) ~rid ~key ~origin ~hops =
  if Node.hot_covers me key then begin
    (* Boost replica: answer straight from the synced hot copy (state
       as of the last balance round — the same loose consistency as a
       replica missed by a rumor), advertising the full serving set so
       origins keep spreading. *)
    cache_incr t "balance.hot_serve";
    let items = Store.find me.hot_store key in
    let region = match me.hot_region with Some r -> r | None -> Node.region me in
    if me.id = origin then finish_single t rid ~items ~hops ~complete:true
    else
      Net.send t.net ~src:me.id ~dst:origin
        (Message.Found { rid; items; hops; region; spread = me.hot_spread })
  end
  else
    match next_hop t me ~rid ~origin ~hops key with
    | `Local ->
      let items = Store.find me.store key in
      if me.id = origin then finish_single t rid ~items ~hops ~complete:true
      else
        Net.send t.net ~src:me.id ~dst:origin
          (Message.Found { rid; items; hops; region = Node.region me; spread = owner_spread t me })
    | `Forward p when not (too_far t hops) ->
      Net.send t.net ~src:me.id ~dst:p (Message.Lookup { rid; key; origin; hops = hops + 1 })
    | `Forward _ | `Stuck -> ()

let handle_insert t (me : Node.t) ~rid ~item ~origin ~hops =
  match next_hop t me ~rid ~origin ~hops item.Store.key with
  | `Local ->
    if Store.put me.store item then Node.bump_epoch me;
    List.iter
      (fun r -> Net.send t.net ~src:me.id ~dst:r (Message.Replicate { item; rounds_left = 0 }))
      me.replicas;
    if me.id = origin then finish_single t rid ~items:[ item ] ~hops ~complete:true
    else
      Net.send t.net ~src:me.id ~dst:origin (Message.Ack { rid; hops; region = Node.region me })
  | `Forward p when not (too_far t hops) ->
    Net.send t.net ~src:me.id ~dst:p (Message.Insert { rid; item; origin; hops = hops + 1 })
  | `Forward _ | `Stuck -> ()

let handle_delete t (me : Node.t) ~rid ~key ~item_id ~origin ~hops =
  match next_hop t me ~rid ~origin ~hops key with
  | `Local ->
    Store.remove me.store ~key ~item_id;
    Node.bump_epoch me;
    List.iter
      (fun r -> Net.send t.net ~src:me.id ~dst:r (Message.Unreplicate { key; item_id }))
      me.replicas;
    if me.id = origin then finish_single t rid ~items:[] ~hops ~complete:true
    else
      Net.send t.net ~src:me.id ~dst:origin (Message.Ack { rid; hops; region = Node.region me })
  | `Forward p when not (too_far t hops) ->
    Net.send t.net ~src:me.id ~dst:p (Message.Delete { rid; key; item_id; origin; hops = hops + 1 })
  | `Forward _ | `Stuck -> ()

let handle_update t (me : Node.t) ~rid ~item ~origin ~hops ~rounds =
  match next_hop t me ~rid ~origin ~hops item.Store.key with
  | `Local ->
    if Store.put me.store item then Node.bump_epoch me;
    let targets = Rng.sample t.rng t.config.gossip_fanout me.replicas in
    List.iter
      (fun r -> Net.send t.net ~src:me.id ~dst:r (Message.Replicate { item; rounds_left = rounds }))
      targets;
    if me.id = origin then finish_single t rid ~items:[ item ] ~hops ~complete:true
    else
      Net.send t.net ~src:me.id ~dst:origin (Message.Ack { rid; hops; region = Node.region me })
  | `Forward p when not (too_far t hops) ->
    Net.send t.net ~src:me.id ~dst:p (Message.Update { rid; item; origin; hops = hops + 1; rounds })
  | `Forward _ | `Stuck -> ()

(* ------------------------------------------------------------------ *)
(* Batched operations (bulk insert / multi-key lookup)                  *)

(* Partition a batch at [me]: the share [me] covers locally, plus one
   group per first-divergence level, mirroring [route_step] per key. One
   forwarded message per touched subtree replaces one routed message per
   item. *)
let split_batch (me : Node.t) ~key_of xs =
  let len = Bitkey.length me.Node.path in
  let local = ref [] in
  let groups = Hashtbl.create 8 in
  List.iter
    (fun x ->
      let key = key_of x in
      let rec go l =
        if l >= len then local := x :: !local
        else if Node.key_side me ~level:l key <> Bitkey.get me.Node.path l then begin
          match Hashtbl.find_opt groups l with
          | Some r -> r := x :: !r
          | None -> Hashtbl.add groups l (ref [ x ])
        end
        else go (l + 1)
      in
      go 0)
    xs;
  let forwards =
    Hashtbl.fold (fun l r acc -> (l, List.rev !r) :: acc) groups []
    |> List.sort (fun (a, _) (b, _) -> compare (a : int) b)
  in
  (List.rev !local, forwards)

(* A region's [AckBatch]/[MultiFound] arrived at the batch origin:
   resolve its keys (first answer per key wins), keep its payload, and
   learn a shortcut to the responding region. *)
let deliver_batch_ack t rid ~from ~found ~region ~hops =
  match Hashtbl.find_opt t.pending rid with
  | Some (Pbatch p) ->
    (match find_node t p.origin with
    | Some me -> learn_shortcut t me ~peer:from ~region
    | None -> ());
    p.regions <- p.regions + 1;
    p.hops <- max p.hops hops;
    List.iter
      (fun (key, items) ->
        if Hashtbl.mem p.unacked key then begin
          Hashtbl.remove p.unacked key;
          p.on_ack key items;
          p.items <- List.rev_append items p.items
        end)
      found;
    if Hashtbl.length p.unacked = 0 then finish_batch t rid ~complete:true
  | _ -> ()

let batch_observe t name n =
  match t.metrics with
  | Some m -> Metrics.observe m ~buckets:fanout_buckets name (float_of_int n)
  | None -> ()

let handle_insert_batch t (me : Node.t) ~rid ~items ~origin ~hops =
  let local, forwards = split_batch me ~key_of:(fun (i : Store.item) -> i.Store.key) items in
  if local <> [] then begin
    let changed = ref false in
    List.iter (fun i -> if Store.put me.store i then changed := true) local;
    if !changed then Node.bump_epoch me;
    (* Batched replication: one [SyncItems] per replica instead of one
       [Replicate] per item per replica. *)
    List.iter
      (fun r -> Net.send t.net ~src:me.id ~dst:r (Message.SyncItems { items = local }))
      me.replicas;
    let keys =
      List.sort_uniq String.compare (List.map (fun (i : Store.item) -> i.Store.key) local)
    in
    cache_incr t ~by:((List.length local - 1) * Message.header) "batch.bytes.saved";
    if me.id = origin then
      deliver_batch_ack t rid ~from:me.id
        ~found:(List.map (fun k -> (k, [])) keys)
        ~region:(Node.region me) ~hops
    else
      Net.send t.net ~src:me.id ~dst:origin
        (Message.AckBatch { rid; keys; region = Node.region me; hops })
  end;
  if not (too_far t hops) then
    List.iter
      (fun (level, group) ->
        match choose_ref t me level with
        | Some p ->
          cache_incr t "batch.bulk.batches";
          batch_observe t "batch.bulk.size" (List.length group);
          Net.send t.net ~src:me.id ~dst:p
            (Message.InsertBatch { rid; items = group; origin; hops = hops + 1 })
        | None -> ())
      forwards

let handle_multi_lookup t (me : Node.t) ~rid ~keys ~origin ~hops =
  let local, forwards = split_batch me ~key_of:(fun k -> k) keys in
  if local <> [] then begin
    let found = List.map (fun key -> (key, Store.find me.store key)) local in
    cache_incr t ~by:((List.length local - 1) * Message.header) "batch.bytes.saved";
    if me.id = origin then deliver_batch_ack t rid ~from:me.id ~found ~region:(Node.region me) ~hops
    else
      Net.send t.net ~src:me.id ~dst:origin
        (Message.MultiFound { rid; found; region = Node.region me; hops })
  end;
  if not (too_far t hops) then
    List.iter
      (fun (level, group) ->
        match choose_ref t me level with
        | Some p ->
          cache_incr t "batch.probe.batches";
          batch_observe t "batch.probe.size" (List.length group);
          Net.send t.net ~src:me.id ~dst:p
            (Message.MultiLookup { rid; keys = group; origin; hops = hops + 1 })
        | None -> ())
      forwards

(* The shower split of the clip at [me]: one (ref, sub-clip) per
   complementary subtree intersecting it, computed level by level from
   [me]'s own split boundaries. *)
let shower_splits t (me : Node.t) ~hops ~clip_lo ~clip_hi =
  let acc = ref [] in
  let len = Bitkey.length me.path in
  let plo = ref "" and phi = ref None in
  for l = 0 to len - 1 do
    let boundary = me.splits.(l) in
    let mybit = Bitkey.get me.path l in
    let sibling = if mybit then (!plo, Some boundary) else (boundary, !phi) in
    (match interval_intersect (clip_lo, clip_hi) sibling with
    | Some (lo', hi') when not (too_far t hops) -> (
      match choose_ref t me l with Some p -> acc := (p, lo', hi') :: !acc | None -> ())
    | _ -> ());
    if mybit then plo := boundary else phi := Some boundary
  done;
  List.rev !acc

(* Shower probe processing: partition the clip among my own region and my
   complementary subtrees, forward each non-empty sub-clip to one
   reference of that subtree, answer my own region locally. *)
let process_shower t (me : Node.t) ~rid ~token ~origin ~hops ~clip_lo ~clip_hi ~local ~forward =
  let targets =
    List.map
      (fun (p, lo', hi') ->
        let tok = fresh_rid t in
        forward ~dst:p ~token:tok ~clip_lo:lo' ~clip_hi:hi';
        tok)
      (shower_splits t me ~hops ~clip_lo ~clip_hi)
  in
  let items = local () in
  if me.id = origin then deliver_hit t rid ~from:me.id ~token ~items ~targets ~hops
  else
    Net.send t.net ~src:me.id ~dst:origin
      (Message.RangeHit { rid; token; items; targets; origin; hops })

let handle_range t (me : Node.t) ~rid ~token ~lo ~hi ~clip_lo ~clip_hi ~origin ~reply_to ~hops
    ~strategy ~budget =
  match (strategy : Message.range_strategy) with
  | Shower -> (
    let forward ~dst ~token ~clip_lo ~clip_hi ~reply_to =
      Net.send t.net ~src:me.id ~dst
        (Message.Range
           {
             rid;
             token;
             lo;
             hi;
             clip_lo;
             clip_hi;
             origin;
             reply_to;
             hops = hops + 1;
             strategy;
             budget;
           })
    in
    let splits = shower_splits t me ~hops ~clip_lo ~clip_hi in
    let items = Store.range me.store ~lo ~hi in
    if me.id = origin || not t.config.range_aggregation then begin
      (* Top of the split tree, or aggregation off: children reply
         straight to the origin's token accounting. *)
      let targets =
        List.map
          (fun (p, lo', hi') ->
            let tok = fresh_rid t in
            forward ~dst:p ~token:tok ~clip_lo:lo' ~clip_hi:hi' ~reply_to:origin;
            tok)
          splits
      in
      if me.id = origin then deliver_hit t rid ~from:me.id ~token ~items ~targets ~hops
      else
        Net.send t.net ~src:me.id ~dst:origin
          (Message.RangeHit { rid; token; items; targets; origin; hops })
    end
    else
      match (items, splits) with
      | [], [ (p, lo', hi') ] ->
        (* Path compression: nothing local and a single subtree — pass my
           token through and let the child answer whom I would have; my
           own (empty) hit is elided entirely. *)
        cache_incr t "batch.agg.elided";
        cache_incr t ~by:Message.header "batch.bytes.saved";
        forward ~dst:p ~token ~clip_lo:lo' ~clip_hi:hi' ~reply_to
      | _, [] ->
        (* Leaf of the split tree: reply to my parent, fully merged. *)
        Net.send t.net ~src:me.id ~dst:reply_to
          (Message.RangeHit { rid; token; items; targets = []; origin; hops })
      | _, _ ->
        (* Interior node: buffer up to [agg_fanin] children and merge
           their hits into mine before replying upward; overflow children
           reply straight to the origin and their tokens travel upward
           unmerged. *)
        let fanin = max 1 t.config.agg_fanin in
        let tagged =
          List.mapi
            (fun i (p, lo', hi') ->
              let tok = fresh_rid t in
              let buffered = i < fanin in
              forward ~dst:p ~token:tok ~clip_lo:lo' ~clip_hi:hi'
                ~reply_to:(if buffered then me.id else origin);
              (tok, buffered))
            splits
        in
        let waiting = List.filter_map (fun (tok, b) -> if b then Some tok else None) tagged in
        let carried = List.filter_map (fun (tok, b) -> if b then None else Some tok) tagged in
        if carried <> [] then cache_incr t ~by:(List.length carried) "batch.agg.overflow";
        let a =
          {
            agg_rid = rid;
            agg_token = token;
            agg_parent = reply_to;
            agg_origin = origin;
            agg_owner = me.id;
            waiting;
            carried;
            agg_items = items;
            agg_hops = hops;
            flushed = false;
          }
        in
        List.iter (fun tok -> Hashtbl.replace t.aggs tok a) waiting;
        Sim.schedule t.sim ~delay:t.config.agg_flush_ms (fun () -> flush_agg t a ~reason:"timeout"))
  | Sequential ->
    (* Every receiving peer reports a hit (routing-only peers report an
       empty one naming their next hop) so the origin's termination
       tracking stays exact. *)
    let emit items targets =
      if me.id = origin then deliver_hit t rid ~from:me.id ~token ~items ~targets ~hops
      else
        Net.send t.net ~src:me.id ~dst:origin
          (Message.RangeHit { rid; token; items; targets; origin; hops })
    in
    if not (Node.covers me clip_lo) then begin
      (* Still routing toward the low end of the remaining range. *)
      match route_step t me clip_lo with
      | `Forward p when not (too_far t hops) ->
        let tok = fresh_rid t in
        Net.send t.net ~src:me.id ~dst:p
          (Message.Range
             {
               rid;
               token = tok;
               lo;
               hi;
               clip_lo;
               clip_hi;
               origin;
               reply_to = origin;
               hops = hops + 1;
               strategy;
               budget;
             });
        emit [] [ tok ]
      | `Forward _ | `Local | `Stuck -> emit [] []
    end
    else begin
      let items = Store.range me.store ~lo ~hi in
      (* Key order = value order (order-preserving encodings), so a
         result budget lets top-N traversals stop early. *)
      let items, budget_left =
        match budget with
        | None -> (items, None)
        | Some b ->
          let kept = List.filteri (fun i _ -> i < b) items in
          (kept, Some (b - List.length kept))
      in
      let _, region_hi = Node.region me in
      let continue_key =
        match region_hi with
        | Some h when String.compare h hi <= 0 -> Some h
        | _ -> None
      in
      let exhausted = match budget_left with Some b when b <= 0 -> true | _ -> false in
      let targets =
        match continue_key with
        | None -> []
        | Some _ when exhausted -> []
        | Some nxt when too_far t hops ->
          ignore nxt;
          []
        | Some nxt -> (
          match route_step t me nxt with
          | `Forward p ->
            let tok = fresh_rid t in
            Net.send t.net ~src:me.id ~dst:p
              (Message.Range
                 {
                   rid;
                   token = tok;
                   lo;
                   hi;
                   clip_lo = nxt;
                   clip_hi;
                   origin;
                   reply_to = origin;
                   hops = hops + 1;
                   strategy;
                   budget = budget_left;
                 });
            [ tok ]
          | `Local | `Stuck -> [])
      in
      emit items targets
    end

let handle_probe t (me : Node.t) ~rid ~token ~clip_lo ~clip_hi ~origin ~hops ~pred ~reduce =
  let local () =
    let acc = ref [] in
    Store.iter me.store (fun i -> if pred i then acc := i :: !acc);
    (* Leaf-side partial reduction (e.g. a local skyline): items the
       reducer drops never cross the network. *)
    match reduce with
    | None -> !acc
    | Some f ->
      let before = !acc in
      let after = f before in
      let saved =
        List.fold_left (fun b i -> b + Store.item_bytes i) 0 before
        - List.fold_left (fun b i -> b + Store.item_bytes i) 0 after
      in
      if saved > 0 then cache_incr t ~by:saved "probe.reduce.bytes.saved";
      after
  in
  let forward ~dst ~token ~clip_lo ~clip_hi =
    Net.send t.net ~src:me.id ~dst
      (Message.Probe { rid; token; clip_lo; clip_hi; origin; hops = hops + 1; pred; reduce })
  in
  process_shower t me ~rid ~token ~origin ~hops ~clip_lo ~clip_hi ~local ~forward

(* ------------------------------------------------------------------ *)
(* Replica synchronization (rumor spreading + anti-entropy)             *)

let handle_replicate t (me : Node.t) ~item ~rounds_left =
  let changed = Store.put me.store item in
  if changed then Node.bump_epoch me;
  if changed && rounds_left > 0 && me.replicas <> [] then begin
    let targets = Rng.sample t.rng t.config.gossip_fanout me.replicas in
    List.iter
      (fun r ->
        Net.send t.net ~src:me.id ~dst:r (Message.Replicate { item; rounds_left = rounds_left - 1 }))
      targets
  end

(* What a [SyncDigest] receiver learns about one digest entry: their
   version, and whether (and at which version) the local store holds
   the pair. *)
type sync_mark = { theirs : int; mutable held : bool; mutable mine : int }

let handle_sync t ~(me : Node.t) ~src msg =
  match (msg : Message.t) with
  | SyncDigest { digest } ->
    (* One mark per digest entry; the table keeps the last mark of each
       (key, id) pair, as a table of their versions would. *)
    let marks = Hashtbl.create (List.length digest) in
    let entries =
      List.map
        (fun (k, id, v) ->
          let m = { theirs = v; held = false; mine = 0 } in
          Hashtbl.replace marks (k, id) m;
          (k, id, m))
        digest
    in
    (* One pass over the local store answers both directions: items they
       are missing or hold stale go into [to_send], and every pair their
       digest names is marked with my version. *)
    let to_send = ref [] in
    Store.iter me.store (fun i ->
        match Hashtbl.find_opt marks (i.key, i.item_id) with
        | Some m ->
          m.held <- true;
          m.mine <- i.version;
          if m.theirs < i.version then to_send := i :: !to_send
        | None -> to_send := i :: !to_send);
    if !to_send <> [] then Net.send t.net ~src:me.id ~dst:src (Message.SyncItems { items = !to_send });
    (* Items I am missing or hold stale: the digest entries no local
       item of equal or newer version covers, in digest order. A pair
       listed twice is marked on its last entry only; the earlier ones
       read that mark. *)
    let wanted =
      List.filter_map
        (fun (k, id, m) ->
          let seen = if m.held then m else Hashtbl.find marks (k, id) in
          if seen.held && seen.mine >= m.theirs then None else Some (k, id))
        entries
    in
    if wanted <> [] then Net.send t.net ~src:me.id ~dst:src (Message.SyncRequest { wanted })
  | SyncRequest { wanted } ->
    (* One [Store.find] per distinct key rather than per entry: a
       replica that fell behind asks for many items under each hot key. *)
    let by_key = Hashtbl.create 16 in
    let held k =
      match Hashtbl.find_opt by_key k with
      | Some ids -> ids
      | None ->
        let ids = Hashtbl.create 8 in
        List.iter (fun (i : Store.item) -> Hashtbl.replace ids i.item_id i) (Store.find me.store k);
        Hashtbl.add by_key k ids;
        ids
    in
    let items = List.filter_map (fun (k, id) -> Hashtbl.find_opt (held k) id) wanted in
    if items <> [] then Net.send t.net ~src:me.id ~dst:src (Message.SyncItems { items })
  | SyncItems { items } ->
    List.iter (fun i -> if Store.put me.store i then Node.bump_epoch me) items
  | _ -> invalid_arg "Overlay.handle_sync: not a sync message"

(* ------------------------------------------------------------------ *)
(* Dispatcher                                                          *)

let dispatch t (me : Node.t) ~src msg =
  match (msg : Message.t) with
  | Lookup { rid; key; origin; hops } ->
    Node.bump_served me;
    handle_lookup t me ~rid ~key ~origin ~hops
  | Insert { rid; item; origin; hops } ->
    Node.bump_served me;
    handle_insert t me ~rid ~item ~origin ~hops
  | Update { rid; item; origin; hops; rounds } ->
    Node.bump_served me;
    handle_update t me ~rid ~item ~origin ~hops ~rounds
  | Found { rid; items; hops; region; spread } ->
    observe_rtt t me rid ~peer:src;
    learn_shortcut t me ~peer:src ~region;
    List.iter (fun p -> if p <> src then learn_shortcut t me ~peer:p ~region) spread;
    finish_single t rid ~items ~hops ~complete:true
  | Ack { rid; hops; region } ->
    observe_rtt t me rid ~peer:src;
    learn_shortcut t me ~peer:src ~region;
    finish_single t rid ~items:[] ~hops ~complete:true
  | Range { rid; token; lo; hi; clip_lo; clip_hi; origin; reply_to; hops; strategy; budget } ->
    Node.bump_served me;
    handle_range t me ~rid ~token ~lo ~hi ~clip_lo ~clip_hi ~origin ~reply_to ~hops ~strategy
      ~budget
  | RangeHit { rid; token; items; targets; origin; hops } -> (
    match Hashtbl.find_opt t.aggs token with
    | Some a ->
      (* A buffered child answered: merge its hit into the buffer. *)
      Hashtbl.remove t.aggs token;
      a.waiting <- List.filter (fun x -> x <> token) a.waiting;
      a.carried <- List.rev_append targets a.carried;
      a.agg_items <- List.rev_append items a.agg_items;
      a.agg_hops <- max a.agg_hops hops;
      cache_incr t "batch.agg.merged";
      if a.waiting = [] then flush_agg t a ~reason:"complete"
    | None ->
      if me.id = origin then deliver_hit t rid ~from:src ~token ~items ~targets ~hops
      else begin
        (* No buffer (it already flushed on timeout): relay the straggler
           home so the origin's accounting still sees its token. *)
        cache_incr t "batch.agg.relayed";
        Net.send t.net ~src:me.id ~dst:origin
          (Message.RangeHit { rid; token; items; targets; origin; hops })
      end)
  | InsertBatch { rid; items; origin; hops } ->
    Node.bump_served me;
    handle_insert_batch t me ~rid ~items ~origin ~hops
  | AckBatch { rid; keys; region; hops } ->
    deliver_batch_ack t rid ~from:src ~found:(List.map (fun k -> (k, [])) keys) ~region ~hops
  | MultiLookup { rid; keys; origin; hops } ->
    Node.bump_served me;
    handle_multi_lookup t me ~rid ~keys ~origin ~hops
  | MultiFound { rid; found; region; hops } -> deliver_batch_ack t rid ~from:src ~found ~region ~hops
  | Probe { rid; token; clip_lo; clip_hi; origin; hops; pred; reduce } ->
    Node.bump_served me;
    handle_probe t me ~rid ~token ~clip_lo ~clip_hi ~origin ~hops ~pred ~reduce
  | Replicate { item; rounds_left } -> handle_replicate t me ~item ~rounds_left
  | Delete { rid; key; item_id; origin; hops } ->
    Node.bump_served me;
    handle_delete t me ~rid ~key ~item_id ~origin ~hops
  | Unreplicate { key; item_id } ->
    Store.remove me.store ~key ~item_id;
    Node.bump_epoch me
  | StatGossip { summaries } ->
    List.iter
      (fun s -> if Statcache.merge me.stat_cache s then cache_incr t "cache.stats.merged")
      summaries
  | HotSync { region; owner; spread; items; retire } ->
    if retire then begin
      Node.clear_hot me;
      cache_incr t "balance.retire_recv"
    end
    else begin
      (* (Re)install the boost copy wholesale: each balance round ships
         the owner's current region content, so staleness is bounded by
         the control-loop interval. *)
      Store.clear me.hot_store;
      List.iter (fun it -> ignore (Store.put me.hot_store it)) items;
      me.hot_region <- Some region;
      me.hot_owner <- owner;
      me.hot_spread <- spread;
      cache_incr t "balance.sync_recv"
    end
  | Task { run; _ } -> run me.id
  | Exchange { run; _ } -> run me.id
  | (SyncDigest _ | SyncRequest _ | SyncItems _) as m -> handle_sync t ~me ~src m

let add_node t id =
  if id < 0 then invalid_arg "Overlay.add_node: negative id";
  if find_node t id <> None then invalid_arg "Overlay.add_node: duplicate id";
  let cap = Array.length t.node_arena in
  if id >= cap then begin
    let ncap = max (id + 1) (max 64 (cap * 2)) in
    let arena = Array.make ncap None in
    Array.blit t.node_arena 0 arena 0 cap;
    t.node_arena <- arena
  end;
  let n = Node.create ~backend:t.config.Config.store_backend id in
  Shortcuts.set_capacity n.Node.shortcuts t.config.shortcut_capacity;
  Shortcuts.set_spread n.Node.shortcuts t.config.spread_load;
  t.node_arena.(id) <- Some n;
  t.n_nodes <- t.n_nodes + 1;
  if id > t.max_node_id then t.max_node_id <- id;
  t.nodes_cache <- None;
  Net.register t.net id (fun ~src msg -> dispatch t n ~src msg);
  n

(* ------------------------------------------------------------------ *)
(* Public operations                                                   *)

let insert t ~origin ~key ~item_id ~payload ?(version = 0) ~k () =
  let rid = fresh_rid t in
  let item = { Store.key; item_id; payload; version } in
  let me = node t origin in
  let resend () = handle_insert t me ~rid ~item ~origin ~hops:0 in
  Hashtbl.replace t.pending rid (Psingle { op = "insert"; origin; resend; attempts = 0; via = None; started = Sim.now t.sim; k });
  arm_single_timeout t rid;
  resend ()

let update t ~origin ~key ~item_id ~payload ~version ?(rounds = 3) ~k () =
  let rid = fresh_rid t in
  let item = { Store.key; item_id; payload; version } in
  let me = node t origin in
  let resend () = handle_update t me ~rid ~item ~origin ~hops:0 ~rounds in
  Hashtbl.replace t.pending rid (Psingle { op = "update"; origin; resend; attempts = 0; via = None; started = Sim.now t.sim; k });
  arm_single_timeout t rid;
  resend ()

let delete t ~origin ~key ~item_id ~k =
  let rid = fresh_rid t in
  let me = node t origin in
  let resend () = handle_delete t me ~rid ~key ~item_id ~origin ~hops:0 in
  Hashtbl.replace t.pending rid (Psingle { op = "delete"; origin; resend; attempts = 0; via = None; started = Sim.now t.sim; k });
  arm_single_timeout t rid;
  resend ()

let lookup t ~origin ~key ~k =
  let rid = fresh_rid t in
  let me = node t origin in
  let resend () = handle_lookup t me ~rid ~key ~origin ~hops:0 in
  Hashtbl.replace t.pending rid (Psingle { op = "lookup"; origin; resend; attempts = 0; via = None; started = Sim.now t.sim; k });
  arm_single_timeout t rid;
  resend ()

let start_multi t ~op ~origin ~k =
  let rid = fresh_rid t in
  Hashtbl.replace t.pending rid
    (Pmulti
       {
         op;
         origin;
         expected = Hashtbl.create 16;
         received = Hashtbl.create 16;
         missing = 0;
         peers = Hashtbl.create 16;
         items = [];
         hops = 0;
         resend = None;
         attempts = 0;
         wave_floor = 0;
         started = Sim.now t.sim;
         k;
       });
  arm_multi_timeout t rid;
  rid

(* The resend closure mints fresh tokens per call, so it is installed
   after [start_multi] hands back the rid it needs to close over. *)
let set_multi_resend t rid f =
  match Hashtbl.find_opt t.pending rid with
  | Some (Pmulti p) -> p.resend <- Some f
  | _ -> ()

let range t ~origin ?(strategy = Message.Shower) ?budget ~lo ~hi ~k () =
  (match (budget, strategy) with
  | Some _, Message.Shower -> invalid_arg "Overlay.range: budget requires Sequential"
  | _ -> ());
  let rid = start_multi t ~op:"range" ~origin ~k in
  let me = node t origin in
  let send () =
    handle_range t me ~rid ~token:(fresh_rid t) ~lo ~hi ~clip_lo:lo ~clip_hi:(after_inclusive hi)
      ~origin ~reply_to:origin ~hops:0 ~strategy ~budget
  in
  set_multi_resend t rid send;
  send ()

let prefix t ~origin ~prefix:p ~k =
  let rid = start_multi t ~op:"prefix" ~origin ~k in
  let me = node t origin in
  (* All keys extending [p]: inclusive bounds for local filtering, and the
     exclusive clip just past the last extension. *)
  let hi = p ^ String.make 64 '\xff' in
  let send () =
    handle_range t me ~rid ~token:(fresh_rid t) ~lo:p ~hi ~clip_lo:p ~clip_hi:(after_inclusive hi)
      ~origin ~reply_to:origin ~hops:0 ~strategy:Message.Shower ~budget:None
  in
  set_multi_resend t rid send;
  send ()

(* Bulk insert: ship the whole (sorted) batch as one [InsertBatch] that
   splits shower-style down the trie; every covering region stores its
   share and acks it once. Timeouts selectively retransmit only the
   still-unacked items. *)
let bulk_insert t ~origin ~items ~k =
  match items with
  | [] -> k { items = []; hops = 0; peers_hit = 0; complete = true; completeness = 1.0; latency = 0.0 }
  | _ ->
    let rid = fresh_rid t in
    let me = node t origin in
    let items =
      List.sort (fun (a : Store.item) b -> String.compare a.Store.key b.Store.key) items
    in
    let unacked = Hashtbl.create (List.length items) in
    List.iter (fun (i : Store.item) -> Hashtbl.replace unacked i.Store.key ()) items;
    let resend () =
      let remaining =
        List.filter (fun (i : Store.item) -> Hashtbl.mem unacked i.Store.key) items
      in
      if remaining <> [] then handle_insert_batch t me ~rid ~items:remaining ~origin ~hops:0
    in
    Hashtbl.replace t.pending rid
      (Pbatch
         {
           op = "bulk-insert";
           origin;
           total = List.length items;
           unacked;
           resend;
           attempts = 0;
           hops = 0;
           regions = 0;
           items = [];
           on_ack = (fun _ _ -> ());
           started = Sim.now t.sim;
           k;
         });
    arm_batch_timeout t rid;
    resend ()

(* Batched point lookups for bind-join probes: deduplicated keys travel
   as one [MultiLookup] that splits by responsible region; each region
   answers once. [k] receives the per-key answers alongside the combined
   result. *)
let multi_lookup t ~origin ~keys ~k =
  match keys with
  | [] -> k ([], { items = []; hops = 0; peers_hit = 0; complete = true; completeness = 1.0; latency = 0.0 })
  | _ ->
    let rid = fresh_rid t in
    let me = node t origin in
    let keys = List.sort_uniq String.compare keys in
    let unacked = Hashtbl.create (List.length keys) in
    List.iter (fun key -> Hashtbl.replace unacked key ()) keys;
    let found = Hashtbl.create (List.length keys) in
    let resend () =
      let remaining = List.filter (Hashtbl.mem unacked) keys in
      if remaining <> [] then handle_multi_lookup t me ~rid ~keys:remaining ~origin ~hops:0
    in
    Hashtbl.replace t.pending rid
      (Pbatch
         {
           op = "multi-lookup";
           origin;
           total = List.length keys;
           unacked;
           resend;
           attempts = 0;
           hops = 0;
           regions = 0;
           items = [];
           on_ack = (fun key items -> Hashtbl.replace found key items);
           started = Sim.now t.sim;
           k =
             (fun r ->
               let assoc =
                 List.map
                   (fun key -> (key, Option.value (Hashtbl.find_opt found key) ~default:[]))
                   keys
               in
               k (assoc, r));
         });
    arm_batch_timeout t rid;
    resend ()

(* [lo]/[hi] clip the probe to one key region (e.g. a single index
   family) instead of flooding the whole trie; [reduce] runs at each
   leaf over its matched items before the reply travels. *)
let broadcast t ~origin ?(lo = "") ?hi ?reduce ~pred ~k () =
  let rid = start_multi t ~op:"broadcast" ~origin ~k in
  let me = node t origin in
  let send () =
    handle_probe t me ~rid ~token:(fresh_rid t) ~clip_lo:lo ~clip_hi:hi ~origin ~hops:0 ~pred
      ~reduce
  in
  set_multi_resend t rid send;
  send ()

let send_task t ~src ~dst ~bytes run = Net.send t.net ~src ~dst (Message.Task { bytes; run })

(* Exposed for fault tests: peers currently holding an unflushed
   aggregation buffer (interior nodes of in-flight shower ranges). *)
let agg_owners t =
  Hashtbl.fold (fun _ a acc -> if a.flushed then acc else a.agg_owner :: acc) t.aggs []
  |> List.sort_uniq compare

(* ------------------------------------------------------------------ *)
(* Synchronous wrappers                                                *)

let await t f =
  let cell = ref None in
  f (fun r -> cell := Some r);
  let completed = Sim.run_until t.sim (fun () -> !cell <> None) in
  match !cell with
  | Some r -> r
  | None ->
    ignore completed;
    { items = []; hops = 0; peers_hit = 0; complete = false; completeness = 0.0; latency = 0.0 }

let insert_sync t ~origin ~key ~item_id ~payload ?version () =
  await t (fun k -> insert t ~origin ~key ~item_id ~payload ?version ~k ())

let lookup_sync t ~origin ~key = await t (fun k -> lookup t ~origin ~key ~k)

let delete_sync t ~origin ~key ~item_id = await t (fun k -> delete t ~origin ~key ~item_id ~k)

let update_sync t ~origin ~key ~item_id ~payload ~version ?rounds () =
  await t (fun k -> update t ~origin ~key ~item_id ~payload ~version ?rounds ~k ())

let range_sync t ~origin ?strategy ?budget ~lo ~hi () =
  await t (fun k -> range t ~origin ?strategy ?budget ~lo ~hi ~k ())

let prefix_sync t ~origin ~prefix:p = await t (fun k -> prefix t ~origin ~prefix:p ~k)
let broadcast_sync t ~origin ~pred = await t (fun k -> broadcast t ~origin ~pred ~k ())

let bulk_insert_sync t ~origin ~items = await t (fun k -> bulk_insert t ~origin ~items ~k)

let multi_lookup_sync t ~origin ~keys =
  let cell = ref None in
  multi_lookup t ~origin ~keys ~k:(fun r -> cell := Some r);
  ignore (Sim.run_until t.sim (fun () -> !cell <> None));
  match !cell with
  | Some r -> r
  | None -> ([], { items = []; hops = 0; peers_hit = 0; complete = false; completeness = 0.0; latency = 0.0 })
