(* Building deployments: dataset generation (harness work) and set-up
   (charged to [setup_s]). *)

module U = Unistore
module Publications = Unistore_workload.Publications
module Rng = Unistore_util.Rng

type data = { ds : Publications.dataset; sample_keys : string list }

let dataset ~seed ~authors =
  Span.harness_step "dataset generation" (fun () ->
      let ds =
        Publications.generate (Rng.create seed)
          { Publications.default_params with n_authors = authors; typo_rate = 0.1 }
      in
      { ds; sample_keys = Publications.sample_keys ds })

(* Gossip rounds run before measuring, so queries plan from gossiped
   statistics as they do on a warmed-up deployment. *)
let gossip_warmup_rounds = 4

(* [create cfg data] is an empty deployment shaped to [data]'s keys, and
   its host seconds. *)
let create cfg data =
  let t0 = Span.now_ns () in
  let st = U.create ~sample_keys:data.sample_keys cfg in
  (st, Span.seconds_between t0 (Span.now_ns ()))

(* [setup cfg data] builds a loaded, warmed-up deployment: create, load,
   oracle statistics, settle and gossip warm-up. Returns it with its host
   seconds and whether every triple was stored. *)
let setup cfg data =
  let t0 = Span.now_ns () in
  let st = U.create ~sample_keys:data.sample_keys cfg in
  let stored = U.load st data.ds.Publications.tuples in
  U.set_stats_of_triples st data.ds.Publications.triples;
  U.settle st;
  for _ = 1 to gossip_warmup_rounds do
    U.gossip_stats_round st
  done;
  U.settle st;
  let dt = Span.seconds_between t0 (Span.now_ns ()) in
  (st, dt, stored = List.length data.ds.Publications.triples)

let pgrid st =
  match U.pgrid st with Some ov -> ov | None -> failwith "P-Grid deployment expected"
