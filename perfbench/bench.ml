(* One benchmark process: wire a workload's world layer by layer, the
   way [Experiment.run] does, and time each layer boundary from
   outside. Prints one JSON report on stdout; run.py turns it into the
   benchmark's result line.

   Order of work in one process:
   - [Experiment.run] on the run's own config: the parity oracle, and
     the one world the peak RSS is read after;
   - at full size, a run at the reference seed, whose modeled numbers
     run.py compares with the committed reference;
   - timed repetitions of the benchmark's own drive for [--seconds],
     every one checked equal to the oracle. With [--trace 1] every
     other repetition is traced.

   Host times are this process's CPU time, read at phase boundaries;
   the traced spans and GC phases also keep elapsed time. *)

open Sio_sim
open Sio_kernel
open Sio_httpd
open Sio_loadgen

let phases = [| "build"; "settle"; "generate"; "summarize"; "teardown" |]
let build, settle, generate, summarize, teardown = (0, 1, 2, 3, 4)

(* Simulated slice a traced run advances [Engine.run] by between two
   clock reads. *)
let slice = Time.s 1

type server = {
  listener : Socket.t;
  stats : Server_stats.t;
  stop : unit -> unit;
  mode : unit -> string;
}

(* The server branches of [Experiment.start_server] that the workloads
   use, with the backend and the server start as separate calls. *)
let start_server probe (cfg : Experiment.config) proc =
  let fail what = failwith ("perfbench: " ^ what ^ " failed to start") in
  let thttpd backend label =
    match Probe.call probe "Thttpd.start" (fun () -> Thttpd.start ~proc ~backend ~config:cfg.thttpd ()) with
    | Ok t ->
        {
          listener = Thttpd.listener t;
          stats = Thttpd.stats t;
          stop = (fun () -> Thttpd.stop t);
          mode = (fun () -> label);
        }
    | Error `Emfile -> fail ("thttpd+" ^ label)
  in
  match cfg.kind with
  | Experiment.Thttpd_devpoll { use_mmap; max_events } -> (
      match Probe.call probe "Backend.devpoll" (fun () -> Backend.devpoll ~use_mmap ~max_events proc) with
      | Ok backend -> thttpd backend "devpoll"
      | Error `Emfile -> fail "/dev/poll")
  | Experiment.Thttpd_epoll { max_events } ->
      thttpd (Probe.call probe "Backend.epoll" (fun () -> Backend.epoll ~max_events proc)) "epoll"
  | Experiment.Phhttpd -> (
      match Probe.call probe "Phhttpd.start" (fun () -> Phhttpd.start ~proc ~config:cfg.phhttpd ()) with
      | Ok t ->
          {
            listener = Phhttpd.listener t;
            stats = Phhttpd.stats t;
            stop = (fun () -> Phhttpd.stop t);
            mode =
              (fun () ->
                match Phhttpd.mode t with Phhttpd.Signals -> "signals" | Phhttpd.Polling -> "polling");
          }
      | Error `Emfile -> fail "phhttpd")
  | Experiment.Thttpd_select | Experiment.Thttpd_poll | Experiment.Hybrid ->
      invalid_arg "perfbench: no workload uses this server"

(* One repetition: the modeled outcome in [Experiment.outcome] form
   plus what the benchmark reads around it. *)
type rep = {
  outcome : Experiment.outcome;
  attempted : int;
  completed : int;
  failed : int;
  phase_cpu_ms : float array;
  phase_wall_ms : float array;
  phase_words : float array;
  gen_events : int;
  pending_end : int;
  gen_promoted_words : float;
  minor_gcs : int;
  major_gcs : int;
  gc_minor_ms : float;
  gc_major_ms : float;
  slowest_slice_ms : float;
  arena_high_water : int;
  mem_used_end : int;
  arena_live_end : int;
  bytes_to_client : int;
  link_util : float;
  cpu_busy : Time.t;
  invariant_failures : string list;
}

type world = {
  engine : Engine.t;
  host : Host.t;
  net : Sio_net.Network.t;
  server : server;
  pool : Inactive.t;
}

(* Per-phase host cost of one repetition. *)
type phase_cost = { cpu_ms : float array; wall_ms : float array; words : float array }

(* Run [f] as phase [i], recording its CPU and elapsed milliseconds and
   its minor words. *)
let timed_phase probe cost i f =
  (match probe with Some p -> p.Probe.phase <- phases.(i) | None -> ());
  let w0 = Gc.minor_words () in
  let t0 = Probe.now () and c0 = Probe.cpu_ns () in
  let x = f () in
  cost.cpu_ms.(i) <- Probe.cpu_ms_between c0 (Probe.cpu_ns ());
  cost.wall_ms.(i) <- Probe.ms_between t0 (Probe.now ());
  cost.words.(i) <- Gc.minor_words () -. w0;
  (match probe with Some p -> Probe.record p ~name:phases.(i) ~parent:"rep" t0 w0 | None -> ());
  x

(* Build the world and let the idle population settle: the wiring of
   [Experiment.run_gen] up to its first [Engine.run]. *)
let setup ?probe cost (cfg : Experiment.config) =
  let call name f = Probe.call probe name f in
  let world =
    timed_phase probe cost build (fun () ->
        let engine = call "Engine.create" (fun () -> Engine.create ~seed:cfg.seed ()) in
        let host =
          call "Host.create" (fun () ->
              Host.create ~engine ~costs:cfg.costs ~wake_policy:cfg.wake_policy
                ~hints_by_default:cfg.hints ?mem_limit:cfg.kernel_mem_limit ())
        in
        let net =
          call "Network.create" (fun () ->
              Sio_net.Network.create ~engine
                ?bandwidth_bits_per_sec:cfg.net_bandwidth_bits_per_sec ())
        in
        let proc =
          call "Process.create" (fun () ->
              Process.create ~host ~fd_limit:cfg.server_fd_limit ~name:"server" ())
        in
        let cfg =
          call "Fs" (fun () ->
              let fs = Fs.create ~host () in
              Fs.add_file fs ~path:cfg.workload.Workload.document_path
                ~bytes:cfg.workload.Workload.doc_bytes;
              let conn base = { base with Conn.fs = Some fs; transmit = cfg.transmit } in
              {
                cfg with
                thttpd = { cfg.thttpd with Thttpd.conn = conn cfg.thttpd.Thttpd.conn };
                phhttpd = { cfg.phhttpd with Phhttpd.conn = conn cfg.phhttpd.Phhttpd.conn };
              })
        in
        let server = start_server probe cfg proc in
        let rng = Rng.split (Engine.rng engine) in
        let pool =
          call "Inactive.start" (fun () ->
              Inactive.start ~engine ~net ~listener:server.listener ~workload:cfg.workload ~rng ())
        in
        { engine; host; net; server; pool })
  in
  timed_phase probe cost settle (fun () ->
      call "Engine.run" (fun () -> Engine.run ~until:cfg.settle world.engine));
  world

let drive ?probe (cfg : Experiment.config) =
  let zeros () = Array.make (Array.length phases) 0. in
  let cost = { cpu_ms = zeros (); wall_ms = zeros (); words = zeros () } in
  let phase i f = timed_phase probe cost i f in
  let call name f = Probe.call probe name f in
  let gc0 = Gc.quick_stat () in
  let { engine; host; net; server; pool } = setup ?probe cost cfg in
  let events_settled = Engine.events_executed engine in
  let gc_gen0 = Gc.quick_stat () in
  let client, generation_end, slowest_slice_ms =
    phase generate (fun () ->
        let client =
          call "Httperf.start" (fun () ->
              Httperf.start ~engine ~net ~listener:server.listener ~workload:cfg.workload
                ~rng:(Rng.split (Engine.rng engine)) ())
        in
        let generation_end = Time.add (Engine.now engine) (Workload.generation_duration cfg.workload) in
        let horizon =
          Time.add generation_end (Time.add cfg.workload.Workload.client_timeout cfg.drain)
        in
        let slowest =
          match probe with
          | None ->
              Engine.run ~until:horizon engine;
              0.
          | Some p ->
              let slowest = ref 0. in
              while Engine.now engine < horizon do
                let until = Time.min horizon (Time.add (Engine.now engine) slice) in
                let c0 = Probe.cpu_ns () in
                call "Engine.run" (fun () -> Engine.run ~until engine);
                slowest := Float.max !slowest (Probe.cpu_ms_between c0 (Probe.cpu_ns ()));
                Probe.drain_gc p
              done;
              !slowest
        in
        (client, generation_end, slowest))
  in
  let gc_gen1 = Gc.quick_stat () in
  let gen_events = Engine.events_executed engine - events_settled in
  let pending_end = Engine.pending engine in
  let metrics, final_mode =
    phase summarize (fun () ->
        let m = call "Httperf.metrics" (fun () -> Httperf.metrics client ~t_end:generation_end) in
        (m, server.mode ()))
  in
  phase teardown (fun () ->
      call "server.stop" server.stop;
      call "Inactive.stop" (fun () -> Inactive.stop pool));
  let gc1 = Gc.quick_stat () in
  let gc_minor_ms, gc_major_ms =
    match probe with Some p -> Probe.end_rep p | None -> (0., 0.)
  in
  let outcome =
    {
      Experiment.metrics;
      server_stats = server.stats;
      host_counters = host.Host.counters;
      cpu_utilization = Cpu.utilization host.Host.cpu ~now:(Engine.now engine);
      inactive_established = Inactive.established pool;
      inactive_reopens = Inactive.reopens pool;
      final_mode;
      kernel_mem_peak = host.Host.mem_peak;
      host_rss_bytes = 0;
    }
  in
  let attempted = Httperf.attempted client and completed = Httperf.completed client in
  let failed = Metrics.total_errors (Httperf.errors client) in
  let invariant_failures =
    List.filter_map Fun.id
      [
        (if completed <> server.stats.Server_stats.replies then
           Some (Printf.sprintf "httperf completed %d <> server replies %d" completed
                   server.stats.Server_stats.replies)
         else None);
        (if attempted <> completed + failed then
           Some (Printf.sprintf "attempted %d <> completed %d + errors %d" attempted completed failed)
         else None);
      ]
  in
  let down = Sio_net.Network.server_to_client net in
  {
    outcome;
    attempted;
    completed;
    failed;
    phase_cpu_ms = cost.cpu_ms;
    phase_wall_ms = cost.wall_ms;
    phase_words = cost.words;
    gen_events;
    pending_end;
    gen_promoted_words = gc_gen1.Gc.promoted_words -. gc_gen0.Gc.promoted_words;
    minor_gcs = gc1.Gc.minor_collections - gc0.Gc.minor_collections;
    major_gcs = gc1.Gc.major_collections - gc0.Gc.major_collections;
    gc_minor_ms;
    gc_major_ms;
    slowest_slice_ms;
    arena_high_water = Conn_arena.high_water host.Host.arena;
    mem_used_end = host.Host.mem_used;
    arena_live_end = Conn_arena.live_count host.Host.arena;
    bytes_to_client = Sio_net.Link.bytes_sent down;
    link_util = Sio_net.Link.utilization down ~now:(Engine.now engine);
    cpu_busy = Cpu.total_busy host.Host.cpu;
    invariant_failures;
  }

let per r x = if r.completed = 0 then 0. else float_of_int x /. float_of_int r.completed

(* Everything a rep reports that is a function of the config alone:
   the modeled end-to-end metrics, then the per-layer counts. Equal
   across repetitions, and compared with the committed reference. *)
let modeled r =
  let m = r.outcome.Experiment.metrics in
  let c = r.outcome.Experiment.host_counters in
  let s = r.outcome.Experiment.server_stats in
  let e = m.Metrics.errors in
  let f = float_of_int in
  let mb b = f b /. 1e6 in
  [
    ("replies_per_s", m.Metrics.reply_rate_avg);
    ("latency_p50_ms", Percentile.interpolated m.Metrics.latency 50.);
    ("latency_p99_ms", Percentile.interpolated m.Metrics.latency 99.);
    ("latency_samples", f (Histogram.count m.Metrics.latency));
    ("success_pct", if r.attempted = 0 then 0. else 100. *. f r.completed /. f r.attempted);
    ("cpu_util_pct", 100. *. r.outcome.Experiment.cpu_utilization);
    ("sim.events_per_reply", per r r.gen_events);
    ("sim.pending_end", f r.pending_end);
    ("kernel.arena_high_water", f r.arena_high_water);
    ("kernel.mem_peak_mb", mb r.outcome.Experiment.kernel_mem_peak);
    ("loadgen.inactive_established", f r.outcome.Experiment.inactive_established);
    ("loadgen.inactive_reopens", f r.outcome.Experiment.inactive_reopens);
    ("kernel.rt_enqueued_per_reply", per r c.Host.rt_enqueued);
    ("kernel.rt_dropped", f c.Host.rt_dropped);
    ("kernel.rt_overflows", f c.Host.rt_overflows);
    ("httpd.stale_per_reply", per r s.Server_stats.stale_events);
    ("httpd.overflow_recoveries", f s.Server_stats.overflow_recoveries);
    ("httpd.partial_writes_per_reply", per r s.Server_stats.partial_writes);
    ("httpd.bytes_sent_per_reply", per r s.Server_stats.bytes_sent);
    ("net.bytes_to_client_per_reply", per r r.bytes_to_client);
    ("net.link_util_pct", 100. *. r.link_util);
    ("kernel.syscalls_per_reply", per r c.Host.syscalls);
    ("kernel.driver_polls_per_reply", per r c.Host.driver_polls);
    ("kernel.hint_skips_per_reply", per r c.Host.hint_skips);
    ( "kernel.hint_hit_ratio",
      let tries = c.Host.hint_skips + c.Host.driver_polls in
      if tries = 0 then 0. else f c.Host.hint_skips /. f tries );
    ("kernel.wakes_per_reply", per r c.Host.wait_queue_wakes);
    ("kernel.softirqs_per_reply", per r c.Host.softirqs);
    ("kernel.cpu_busy_us_per_reply", per r r.cpu_busy /. 1e3);
    ("httpd.accepted", f s.Server_stats.accepted);
    ("httpd.replies", f s.Server_stats.replies);
    ("httpd.dropped_conns", f s.Server_stats.dropped_conns);
    ("httpd.emfile_drops", f s.Server_stats.emfile_drops);
    ("httpd.enobufs_drops", f s.Server_stats.enobufs_drops);
    ("httpd.timed_out", f s.Server_stats.timed_out_conns);
    ("httpd.mode_switches", f s.Server_stats.mode_switches);
    ("kernel.accepts", f c.Host.accepts);
    ("kernel.refused", f c.Host.connections_refused);
    ("loadgen.attempted", f r.attempted);
    ("loadgen.completed", f r.completed);
    ("loadgen.err.timeouts", f e.Metrics.timeouts);
    ("loadgen.err.refused", f e.Metrics.refused);
    ("loadgen.err.resets", f e.Metrics.resets);
    ("loadgen.err.fd_limited", f e.Metrics.fd_limited);
    ("loadgen.err.port_limited", f e.Metrics.port_limited);
    ("loadgen.err.truncated", f e.Metrics.truncated);
    ("kernel.mem_used_end_mb", mb r.mem_used_end);
    ("kernel.arena_live_end", f r.arena_live_end);
  ]

let median = function
  | [] -> 0.
  | l ->
      let a = Array.of_list l in
      Array.sort Float.compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let med reps f = median (List.map f reps)

(* VmHWM: the process's peak resident set. Arena columns are
   Bigarrays outside the OCaml heap, so heap statistics alone would
   miss them. Read after the process's first world: later worlds reuse
   a heap the runtime does not hand back, so the peak would otherwise
   grow with the number of repetitions a run fits in. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | exception End_of_file -> 0.
    | line -> (
        match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
        | Some kb -> float_of_int kb /. 1024.
        | None -> scan ())
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let setup_s r = (r.phase_cpu_ms.(build) +. r.phase_cpu_ms.(settle)) /. 1e3
let run_cpu_s r = r.phase_cpu_ms.(generate) /. 1e3

(* Host end-to-end metrics: medians over the untraced repetitions. *)
let host_metrics ~peak_rss reps =
  [
    ("setup_s", med reps setup_s);
    ("run_cpu_s", med reps run_cpu_s);
    ("minor_words_per_reply", med reps (fun r -> r.phase_words.(generate) /. float_of_int (Stdlib.max 1 r.completed)));
    ("promoted_words_per_reply", med reps (fun r -> r.gen_promoted_words /. float_of_int (Stdlib.max 1 r.completed)));
    ("peak_rss_mb", peak_rss);
  ]

(* Host per-layer metrics of the traced repetitions; [untraced] gives
   the tracing overhead. *)
let traced_metrics ~untraced traced =
  let gen r = r.phase_cpu_ms.(generate) in
  let spans =
    List.concat
      (Array.to_list
         (Array.mapi
            (fun i name ->
              [
                ("span." ^ name ^ ".ms", med traced (fun r -> r.phase_cpu_ms.(i)));
                ("span." ^ name ^ ".minor_words", med traced (fun r -> r.phase_words.(i)));
              ])
            phases))
  in
  [
    ("sim.ns_per_event", med traced (fun r -> gen r *. 1e6 /. float_of_int (Stdlib.max 1 r.gen_events)));
    ("gc.minor_collections", med traced (fun r -> float_of_int r.minor_gcs));
    ("gc.minor_ms", med traced (fun r -> r.gc_minor_ms));
    ("gc.major_collections", med traced (fun r -> float_of_int r.major_gcs));
    ("gc.major_ms", med traced (fun r -> r.gc_major_ms));
    ("gc.top_heap_mb", float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.);
    ("span.generate.slowest_slice_ms", med traced (fun r -> r.slowest_slice_ms));
    ("span.generate.wall_ms", med traced (fun r -> r.phase_wall_ms.(generate)));
    ("trace.overhead_pct", 100. *. ((med traced gen /. med untraced gen) -. 1.));
  ]
  @ spans

(* Which parts of two outcomes differ; host RSS is not modeled. *)
let outcome_diff (a : Experiment.outcome) (b : Experiment.outcome) =
  let open Experiment in
  List.filter_map
    (fun (name, same) -> if same then None else Some name)
    [
      ("metrics", compare a.metrics b.metrics = 0);
      ("server_stats", compare a.server_stats b.server_stats = 0);
      ("host_counters", compare a.host_counters b.host_counters = 0);
      ("cpu_utilization", Float.equal a.cpu_utilization b.cpu_utilization);
      ("inactive_established", a.inactive_established = b.inactive_established);
      ("inactive_reopens", a.inactive_reopens = b.inactive_reopens);
      ("final_mode", String.equal a.final_mode b.final_mode);
      ("kernel_mem_peak", a.kernel_mem_peak = b.kernel_mem_peak);
    ]

(* ---- JSON out ---- *)

let json_num x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else "null"

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields) ^ "}"

let json_metrics l = json_obj (List.map (fun (k, v) -> (k, json_num v)) l)
let json_list l = "[" ^ String.concat ", " l ^ "]"

(* A fresh heap per repetition: each world starts from the same GC
   state, so allocation counts repeat exactly. *)
let fresh_heap () = Gc.compact ()

(* The seed of the committed modeled reference. *)
let reference_seed = 42

let () =
  let workload = ref "" and seed = ref reference_seed and seconds = ref 10. and trace = ref 0 in
  let size = ref "full" and trace_out = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME churn | idle35k | rtsig | bulk");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S host seconds of timed repetitions");
      ("--trace", Arg.Set_int trace, "0|1 untraced, or every other repetition traced");
      ("--size", Arg.Set_string size, "full|tiny workload size");
      ("--trace-out", Arg.Set_string trace_out, "PATH write the traced spans as Chrome trace JSON");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  let w =
    match Workloads.find !workload with
    | Some w -> w
    | None ->
        prerr_endline ("bench: unknown workload " ^ !workload);
        exit 2
  in
  let size =
    match !size with
    | "full" -> Workloads.Full
    | "tiny" -> Workloads.Tiny
    | s ->
        prerr_endline ("bench: unknown size " ^ s);
        exit 2
  in
  let traced = !trace = 1 in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let cfg = w.config ~seed:!seed size in
  let oracle = Experiment.run cfg in
  let peak_rss = peak_rss_mb () in
  let reference =
    match size with
    | Workloads.Tiny -> []
    | Workloads.Full ->
        fresh_heap ();
        modeled (drive (w.config ~seed:reference_seed size))
  in
  let first = ref None in
  let check label r =
    (match outcome_diff oracle r.outcome with
    | [] -> ()
    | d -> fail "%s: differs from Experiment.run in %s" label (String.concat ", " d));
    (match !first with
    | None -> first := Some (modeled r)
    | Some m -> if compare m (modeled r) <> 0 then fail "%s: modeled numbers differ from rep 1" label);
    List.iter (fun s -> fail "%s: invariant: %s" label s) r.invariant_failures
  in
  (* With --trace 1 traced and untraced reps alternate, so the tracing
     overhead compares reps that ran under the same host conditions. *)
  let probe = if traced then Some (Probe.create ()) else None in
  let untraced = ref [] and traced_reps = ref [] in
  let t0 = Probe.now () in
  let rec loop i =
    let enough l = List.length !l >= 2 in
    let finished =
      enough untraced && ((not traced) || enough traced_reps)
      && Probe.ms_between t0 (Probe.now ()) >= !seconds *. 1e3
    in
    if not finished then begin
      let probe = if i mod 2 = 1 then probe else None in
      fresh_heap ();
      Option.iter (fun p -> Probe.start_rep p i) probe;
      let r = drive ?probe cfg in
      check (Printf.sprintf "%s rep %d" (if probe = None then "untraced" else "traced") i) r;
      (match probe with None -> untraced := r :: !untraced | Some _ -> traced_reps := r :: !traced_reps);
      loop (i + 1)
    end
  in
  loop 0;
  let untraced = List.rev !untraced and traced_reps = List.rev !traced_reps in
  (match probe with
  | Some p when !trace_out <> "" -> Probe.write_chrome_trace p !trace_out
  | _ -> ());
  let reps = untraced @ traced_reps in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 reps in
  let layers = match !first with Some m -> m | None -> [] in
  let host_layers = if traced then traced_metrics ~untraced traced_reps else [] in
  print_endline
    (json_obj
       [
         ("workload", Printf.sprintf "%S" w.name);
         ("seed", string_of_int !seed);
         ("reference_seed", string_of_int reference_seed);
         ("untraced_reps", string_of_int (List.length untraced));
         ("traced_reps", string_of_int (List.length traced_reps));
         ("attempted", string_of_int (sum (fun r -> r.attempted)));
         ("failed", string_of_int (sum (fun r -> r.failed)));
         ("failures", json_list (List.rev_map (Printf.sprintf "%S") !failures));
         ("host", json_metrics (host_metrics ~peak_rss untraced));
         ("modeled", json_metrics layers);
         ("host_layers", json_metrics host_layers);
         ("reference", json_metrics reference);
         ( "samples",
           json_obj
             [
               ("setup_s", json_list (List.map (fun r -> json_num (setup_s r)) untraced));
               ("run_cpu_s", json_list (List.map (fun r -> json_num (run_cpu_s r)) untraced));
               ( "run_wall_s",
                 json_list (List.map (fun r -> json_num (r.phase_wall_ms.(generate) /. 1e3)) untraced) );
             ] );
       ])
