(* Host clock, timed regions and in-memory spans.

   A timed region is a stretch of host time that the benchmark charges to
   the program: it wraps nothing but calls into the UniStore libraries.
   Work the harness does for itself (generating inputs, checking answers,
   walking the heap) announces itself with [harness_step], which
   records a violation if it ever runs inside a timed region. A run with
   a violation reports [correct = false].

   Spans are recorded only when [tracing] is on: a name, a start, an end,
   the enclosing span and an operation id, kept in memory and written out
   at the end as Chrome trace-event JSON (loadable in Perfetto). *)

(* Measured time is the CPU time of the (only) thread: the program is
   single-threaded, CPU-bound and does no I/O on the default path, so
   this is its host time without the stretches the thread sat
   descheduled while a neighbour on a shared host ran. Deadlines, which
   bound how long a run takes, use the wall clock. *)
external thread_cpu_ns : unit -> int = "perfbench_thread_cpu_ns" [@@noalloc]

let now_ns () = Int64.of_int (thread_cpu_ns ())
let wall_ns () = Monotonic_clock.now ()
let seconds_between a b = Int64.to_float (Int64.sub b a) *. 1e-9

(* ------------------------------------------------------------------ *)
(* Timed regions                                                        *)

let depth = ref 0
let timed_ns = ref 0L
let violations : string list ref = ref []

(* Allocation inside timed regions: minor words and major collections. *)
let timed_minor = ref 0.0
let timed_majors = ref 0

(* [timed f] runs [f] as one timed region and returns its result with the
   region's host seconds. Nested regions are charged once, by the
   outermost one. *)
let timed f =
  let g0 = Gc.quick_stat () in
  let t0 = now_ns () in
  incr depth;
  let r = Fun.protect ~finally:(fun () -> decr depth) f in
  let t1 = now_ns () in
  if !depth = 0 then begin
    let g1 = Gc.quick_stat () in
    timed_ns := Int64.add !timed_ns (Int64.sub t1 t0);
    timed_minor := !timed_minor +. (g1.Gc.minor_words -. g0.Gc.minor_words);
    timed_majors := !timed_majors + (g1.Gc.major_collections - g0.Gc.major_collections)
  end;
  (r, seconds_between t0 t1)

let timed_total_s () = Int64.to_float !timed_ns *. 1e-9

let harness_step what f =
  if !depth > 0 && not (List.mem what !violations) then violations := what :: !violations;
  f ()


(* ------------------------------------------------------------------ *)
(* Spans                                                                *)

type span = {
  id : int;
  name : string;
  start : int64;
  mutable stop : int64;
  parent : int;  (* -1 for a root *)
  op : int;  (* -1 outside any operation *)
}

let tracing = ref false
let spans : span list ref = ref []
let next_id = ref 0
let stack : span list ref = ref []

(* [with_span name ?op f] records [f] as a span under the innermost open
   span; [op] defaults to the enclosing span's operation id. Costs one
   branch when tracing is off. *)
let with_span ?op name f =
  if not !tracing then f ()
  else begin
    let parent, parent_op =
      match !stack with s :: _ -> (s.id, s.op) | [] -> (-1, -1)
    in
    let op = Option.value op ~default:parent_op in
    let s = { id = !next_id; name; start = now_ns (); stop = 0L; parent; op } in
    incr next_id;
    stack := s :: !stack;
    Fun.protect
      ~finally:(fun () ->
        s.stop <- now_ns ();
        stack := List.tl !stack;
        spans := s :: !spans)
      f
  end

let all () = List.rev !spans
let dur_s s = seconds_between s.start s.stop

(* Durations in seconds of every span called [name]. *)
let durations name =
  List.filter_map (fun s -> if String.equal s.name name then Some (dur_s s) else None) (all ())

(* Share of the root spans' time that no child span covers. Children of
   one parent never overlap (the program is single-threaded), so their
   durations add up. *)
let unattributed_frac ~root =
  let covered = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace covered s.parent
          (dur_s s +. Option.value ~default:0.0 (Hashtbl.find_opt covered s.parent)))
    (all ());
  let tot = ref 0.0 and un = ref 0.0 in
  List.iter
    (fun s ->
      if String.equal s.name root then begin
        let d = dur_s s in
        tot := !tot +. d;
        un := !un +. Float.max 0.0 (d -. Option.value ~default:0.0 (Hashtbl.find_opt covered s.id))
      end)
    (all ());
  if !tot > 0.0 then !un /. !tot else 0.0

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Chrome trace-event JSON: one complete ("X") event per span, times in
   microseconds from the first span. *)
let write_chrome path =
  let ss = all () in
  let t0 = List.fold_left (fun m s -> if Int64.compare s.start m < 0 then s.start else m) Int64.max_int ss in
  let us t = Int64.to_float (Int64.sub t t0) /. 1000.0 in
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"op\":%d}}\n"
        (if i = 0 then "" else ",")
        (json_escape s.name) (us s.start)
        (us s.stop -. us s.start)
        s.id s.parent s.op)
    ss;
  output_string oc "]}\n";
  close_out oc
