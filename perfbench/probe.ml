(* Host-side measurement from outside the simulator: a monotonic
   clock, the process's CPU clock, in-memory spans around each layer
   call, and GC phase time read back from this process's own
   Runtime_events ring. Spans and GC reading exist only in traced
   repetitions; untraced ones read the clocks at phase boundaries and
   nothing else. *)

let now () = Monotonic_clock.now ()
let ms_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e6

(* CPU nanoseconds this process has used. Other processes on a shared
   host stretch elapsed time but not this clock, so the benchmark's
   host-cost metrics are read from it. *)
external cpu_ns : unit -> int = "perfbench_cpu_ns" [@@noalloc]

let cpu_ms_between t0 t1 = float_of_int (t1 - t0) /. 1e6

type span = {
  name : string;
  parent : string;  (** the phase the call ran in *)
  rep : int;
  start : int64;
  stop : int64;
  minor_words : float;
}

type gc = {
  mutable minor_ns : int;
  mutable major_ns : int;
  mutable minor_at : int;
  mutable major_at : int;
}

type t = {
  mutable spans : span list;  (** newest first *)
  mutable rep : int;
  mutable phase : string;
  gc : gc;
  cursor : Runtime_events.cursor;
  callbacks : Runtime_events.Callbacks.t;
}

(* Minor collections and major slices are the two phases that run on
   the simulating domain's critical path; the explicit collections the
   benchmark makes between repetitions are drained before a rep
   starts and never counted. *)
let gc_callbacks g =
  let ts t = Int64.to_int (Runtime_events.Timestamp.to_int64 t) in
  Runtime_events.Callbacks.create
    ~runtime_begin:(fun _ t phase ->
      match phase with
      | Runtime_events.EV_MINOR -> g.minor_at <- ts t
      | Runtime_events.EV_MAJOR_SLICE -> g.major_at <- ts t
      | _ -> ())
    ~runtime_end:(fun _ t phase ->
      match phase with
      | Runtime_events.EV_MINOR -> g.minor_ns <- g.minor_ns + (ts t - g.minor_at)
      | Runtime_events.EV_MAJOR_SLICE -> g.major_ns <- g.major_ns + (ts t - g.major_at)
      | _ -> ())
    ()

(* The ring runs only during traced repetitions: [create] starts it
   paused, [start_rep] resumes it and [end_rep] pauses it again. *)
let create () =
  Runtime_events.start ();
  Runtime_events.pause ();
  let gc = { minor_ns = 0; major_ns = 0; minor_at = 0; major_at = 0 } in
  {
    spans = [];
    rep = 0;
    phase = "";
    gc;
    cursor = Runtime_events.create_cursor None;
    callbacks = gc_callbacks gc;
  }

let drain_gc t = ignore (Runtime_events.read_poll t.cursor t.callbacks None)

(* Start a traced repetition: forget GC time accrued before it. *)
let start_rep t rep =
  drain_gc t;
  Runtime_events.resume ();
  t.rep <- rep;
  t.gc.minor_ns <- 0;
  t.gc.major_ns <- 0

(* End it: the minor and major GC milliseconds it spent. *)
let end_rep t =
  drain_gc t;
  Runtime_events.pause ();
  (float_of_int t.gc.minor_ns /. 1e6, float_of_int t.gc.major_ns /. 1e6)

let record t ~name ~parent start w0 =
  let stop = now () in
  t.spans <-
    { name; parent; rep = t.rep; start; stop; minor_words = Gc.minor_words () -. w0 }
    :: t.spans

(* [call probe name f]: one layer call, as a span under the current
   phase when traced. *)
let call probe name f =
  match probe with
  | None -> f ()
  | Some t ->
      let w0 = Gc.minor_words () in
      let start = now () in
      let x = f () in
      record t ~name ~parent:t.phase start w0;
      x

(* Chrome trace-event JSON: one complete ("X") event per span, one
   thread lane per repetition; loads in Perfetto or chrome://tracing. *)
let write_chrome_trace t path =
  let spans = List.rev t.spans in
  let origin = match spans with [] -> 0L | s :: _ -> s.start in
  let us x = Int64.to_float (Int64.sub x origin) /. 1e3 in
  let oc = open_out path in
  output_string oc "{\"traceEvents\": [\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"name\": %S, \"cat\": %S, \"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"parent\": %S, \"minor_words\": %.0f}}"
        (if i = 0 then "" else ",\n")
        s.name s.parent s.rep (us s.start)
        (us s.stop -. us s.start)
        s.parent s.minor_words)
    spans;
  output_string oc "\n]}\n";
  close_out oc
