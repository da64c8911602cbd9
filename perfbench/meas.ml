(* What one measured phase collects, and the statistics reported from it. *)

(* A growable float buffer for per-operation samples. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.0; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let a = Array.make (2 * t.n) 0.0 in
      Array.blit t.a 0 a 0 t.n;
      t.a <- a
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let count t = t.n
  let last t = t.a.(t.n - 1)

  let sorted t =
    let a = Array.sub t.a 0 t.n in
    Array.sort Float.compare a;
    a
end

(* Linear-interpolated percentile of a sorted array. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else begin
    let r = p /. 100.0 *. float_of_int (n - 1) in
    let i = int_of_float r in
    if i >= n - 1 then sorted.(n - 1)
    else sorted.(i) +. ((r -. float_of_int i) *. (sorted.(i + 1) -. sorted.(i)))
  end

let median = function
  | [] -> 0.0
  | xs -> percentile (Array.of_list (List.sort Float.compare xs)) 50.0

(* The tail percentile reported as "p99": 99 when at least 10 samples lie
   beyond it, otherwise the highest whole percentile that still has 10
   beyond it (50 at the lowest). *)
let tail_percentile n =
  let rec go p =
    if p <= 50 then 50
    else if float_of_int n *. (1.0 -. (float_of_int p /. 100.0)) >= 10.0 then p
    else go (p - 1)
  in
  go 99

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable ops : int;  (* completed operations (ops_per_host_s numerator) *)
  mutable writes : int;
  host_ms : Samples.t;  (* host time of each synchronous call *)
  sim_ms : Samples.t;  (* simulated response time of each operation *)
  mutable msgs : int;
  mutable setup_s : float list;
  mutable heap_bytes_per_peer : float;
  mutable phase_s : float;  (* host time of the measured phase *)
  mutable timed_s : float;  (* host time inside timed regions *)
  mutable first_failure : string option;
  by_template : (string, int * int * float) Hashtbl.t;  (* ops, msgs, host s *)
  mutable ops_host_s : float;  (* host time of the completed operations *)
}

let create () =
  {
    attempted = 0;
    failed = 0;
    ops = 0;
    writes = 0;
    host_ms = Samples.create ();
    sim_ms = Samples.create ();
    msgs = 0;
    setup_s = [];
    heap_bytes_per_peer = 0.0;
    phase_s = 0.0;
    timed_s = 0.0;
    first_failure = None;
    by_template = Hashtbl.create 8;
    ops_host_s = 0.0;
  }

(* [count_ops t ~n ~host_s] records [n] completed operations that took
   [host_s] host seconds of timed calls. *)
let count_ops t ~n ~host_s =
  t.ops <- t.ops + n;
  t.ops_host_s <- t.ops_host_s +. host_s

let per_template t name ~msgs ~host_s =
  let n, m, h = Option.value ~default:(0, 0, 0.0) (Hashtbl.find_opt t.by_template name) in
  Hashtbl.replace t.by_template name (n + 1, m + msgs, h +. host_s)

(* Count [n] attempted operations of which [bad] failed; [why] describes
   the first failure seen. *)
let outcome t ?(n = 1) ~bad why =
  t.attempted <- t.attempted + n;
  if bad > 0 then begin
    t.failed <- t.failed + bad;
    if Option.is_none t.first_failure then t.first_failure <- Some (Lazy.force why)
  end

(* Bytes of the heap reachable from [v] (a deployment), headers
   included. Walking the object graph counts exactly what the deployment
   retains, which the runtime's heap statistics do not on OCaml 5.1
   ([Gc.stat]'s [live_words] stays flat as data comes and goes). *)
let retained_bytes v =
  Span.harness_step "heap walk" (fun () ->
      float_of_int (Obj.reachable_words (Obj.repr v) * (Sys.word_size / 8)))

(* Completed operations per host second of their timed calls. *)
let ops_per_host_s t = if t.ops_host_s > 0.0 then float_of_int t.ops /. t.ops_host_s else 0.0

(* One diagnostic line per operation template, in name order. *)
let print_templates t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.by_template []
  |> List.sort compare
  |> List.iter (fun (k, (n, msgs, host_s)) ->
         Printf.printf "# template %s: n=%d msgs/op=%.2f host_ms/op=%.3f\n" k n
           (float_of_int msgs /. float_of_int n)
           (host_s *. 1000.0 /. float_of_int n))
