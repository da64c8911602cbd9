(* Host speed calibration.

   The hosts this benchmark runs on are shared, and their speed drifts
   over minutes: the same fixed computation takes up to 40% longer from
   one minute to the next, in CPU time as in wall time, with no steal
   recorded. Longer runs cannot average out a drift that slow. So every
   [interval_s] of wall time, outside every timed region, the benchmark
   runs a fixed reference kernel (its own code, not the program's) and
   reports host times in reference-host units: each measured time is
   scaled by [reference_ms] over the run's median kernel time. A change
   to the program moves the measured times and not the kernel; a slower
   host moves both. The unscaled numbers are printed on a '#' line. *)

(* The kernel's median CPU time on a 2-core Xeon VM at 2.0 GHz. *)
let reference_ms = 3.7

let interval_s = 0.5

(* Two parts, neither of which allocates, so the state of the program's
   heap cannot move them: a dependent walk of a random cycle through a
   128 KiB array (cache latency) and a branchy interpreter loop
   (instruction throughput). Over 40 short bulk_ingest runs on a drifting
   host, each part's time correlated 0.82 with the program's; a pass over
   a 16 MiB array (memory bandwidth) correlated 0.54 and was left out. *)
let ring =
  lazy
    (let n = 1 lsl 14 in
     let rng = Unistore_util.Rng.create 7 in
     let order = Array.init n Fun.id in
     Unistore_util.Rng.shuffle rng order;
     let next = Array.make n 0 in
     for i = 0 to n - 1 do
       next.(order.(i)) <- order.((i + 1) mod n)
     done;
     next)

let chase () =
  let next = Lazy.force ring in
  let p = ref 0 and h = ref 0 in
  for _ = 1 to 300_000 do
    p := Array.unsafe_get next !p;
    h := ((!h * 31) + !p) land 0xFFFFFFF
  done;
  !h

type ins = Add of int | Mul of int | Jz of int | Dec | Swap

let code = [| Add 3; Mul 7; Swap; Add 1; Dec; Jz 0; Mul 3; Swap; Dec; Jz 2 |]

let interp () =
  let a = ref 1 and b = ref 2 and c = ref 0 in
  for i = 0 to 600_000 do
    match Array.unsafe_get code (i mod Array.length code) with
    | Add k -> a := (!a + k) land 0xFFFFF
    | Mul k -> a := (!a * k) land 0xFFFFF
    | Jz k -> if !a land 7 = 0 then c := !c + k
    | Dec -> b := !b - 1
    | Swap ->
      let t = !a in
      a := !b;
      b := t
  done;
  !a + !b + !c

let kernel () = ignore (Sys.opaque_identity (chase () + interp ()))

let samples = ref []
let last = ref 0L

let measure () =
  Span.harness_step "calibration" (fun () ->
      let t0 = Span.now_ns () in
      kernel ();
      samples := (Span.seconds_between t0 (Span.now_ns ()) *. 1e3) :: !samples;
      last := Span.wall_ns ())

(* Called between operations: runs the kernel once [interval_s] has
   passed since the last run. *)
let tick () = if Span.seconds_between !last (Span.wall_ns ()) >= interval_s then measure ()

let median_ms () =
  if !samples = [] then measure ();
  Meas.median !samples

(* Multiply a measured host time by [factor ()] for reference-host
   units; divide a rate by it. *)
let factor () = reference_ms /. median_ms ()
