open Sio_sim
open Sio_kernel
open Sio_httpd

type server_kind =
  | Thttpd_select
  | Thttpd_poll
  | Thttpd_devpoll of { use_mmap : bool; max_events : int }
  | Thttpd_epoll of { max_events : int }
  | Phhttpd
  | Hybrid

let pp_server_kind ppf = function
  | Thttpd_select -> Fmt.string ppf "thttpd+select"
  | Thttpd_poll -> Fmt.string ppf "thttpd+poll"
  | Thttpd_devpoll { use_mmap; max_events } ->
      Fmt.pf ppf "thttpd+devpoll(mmap=%b,batch=%d)" use_mmap max_events
  | Thttpd_epoll { max_events } -> Fmt.pf ppf "thttpd+epoll(batch=%d)" max_events
  | Phhttpd -> Fmt.string ppf "phhttpd"
  | Hybrid -> Fmt.string ppf "hybrid"

let kind_of_string = function
  | "select" -> Ok Thttpd_select
  | "poll" -> Ok Thttpd_poll
  | "devpoll" -> Ok (Thttpd_devpoll { use_mmap = true; max_events = 64 })
  | "devpoll-nommap" -> Ok (Thttpd_devpoll { use_mmap = false; max_events = 64 })
  | "epoll" -> Ok (Thttpd_epoll { max_events = 64 })
  | "phhttpd" -> Ok Phhttpd
  | "hybrid" -> Ok Hybrid
  | s -> Error (`Msg (Printf.sprintf "unknown server %S" s))

type config = {
  kind : server_kind;
  workload : Workload.t;
  costs : Cost_model.t;
  seed : int;
  thttpd : Thttpd.config;
  phhttpd : Phhttpd.config;
  hybrid : Hybrid.config;
  server_fd_limit : int;
  settle : Time.t;
  drain : Time.t;
  hints : bool;
  wake_policy : Wait_queue.wake_policy;
  transmit : Conn.transmit;
  kernel_mem_limit : int option;
  net_bandwidth_bits_per_sec : int option;
}

let default_config ~kind ~workload =
  let conn = { Conn.default_config with doc_bytes = workload.Workload.doc_bytes } in
  {
    kind;
    workload;
    costs = Cost_model.default;
    seed = 42;
    thttpd = { Thttpd.default_config with conn };
    phhttpd = { Phhttpd.default_config with conn };
    hybrid = { Hybrid.default_config with conn };
    server_fd_limit = 4096;
    settle = Time.s 2;
    drain = Time.s 1;
    hints = true;
    wake_policy = Wait_queue.Wake_all;
    transmit = Conn.Copy;
    kernel_mem_limit = None;
    net_bandwidth_bits_per_sec = None;
  }

type outcome = {
  metrics : Metrics.t;
  server_stats : Server_stats.t;
  host_counters : Host.counters;
  cpu_utilization : float;
  inactive_established : int;
  inactive_reopens : int;
  final_mode : string;
  kernel_mem_peak : int;
  host_rss_bytes : int;
}

type running_server = {
  listener : Socket.t;
  stats : Server_stats.t;
  stop : unit -> unit;
  mode : unit -> string;
}

(* Serve the workload's document from the filesystem substrate: the
   same page-cache path a real static server takes. *)
let with_fs cfg host =
  let fs = Fs.create ~host () in
  Fs.add_file fs ~path:cfg.workload.Workload.document_path
    ~bytes:cfg.workload.Workload.doc_bytes;
  let conn_of base =
    { base with Sio_httpd.Conn.fs = Some fs; transmit = cfg.transmit }
  in
  {
    cfg with
    thttpd = { cfg.thttpd with Sio_httpd.Thttpd.conn = conn_of cfg.thttpd.Sio_httpd.Thttpd.conn };
    phhttpd =
      { cfg.phhttpd with Sio_httpd.Phhttpd.conn = conn_of cfg.phhttpd.Sio_httpd.Phhttpd.conn };
    hybrid = { cfg.hybrid with Sio_httpd.Hybrid.conn = conn_of cfg.hybrid.Sio_httpd.Hybrid.conn };
  }

let start_server cfg proc =
  let started name mode = function
    | Ok t ->
        {
          listener = Server_core.listener t;
          stats = Server_core.stats t;
          stop = (fun () -> Server_core.stop t);
          mode = (fun () -> mode t);
        }
    | Error `Emfile -> failwith ("Experiment: " ^ name ^ " failed to start")
  in
  let thttpd label kind =
    match Backend.create kind proc with
    | Ok backend ->
        started ("thttpd+" ^ label) (fun _ -> label)
          (Thttpd.start ~proc ~backend ~config:cfg.thttpd ())
    | Error `Emfile -> failwith ("Experiment: " ^ label ^ " open failed")
  in
  match cfg.kind with
  | Thttpd_select -> thttpd "select" Backend.Select
  | Thttpd_poll -> thttpd "poll" Backend.Poll
  | Thttpd_epoll { max_events } -> thttpd "epoll" (Backend.Epoll { max_events })
  | Thttpd_devpoll { use_mmap; max_events } ->
      thttpd "devpoll" (Backend.Devpoll { use_mmap; max_events })
  | Phhttpd ->
      started "phhttpd"
        (fun t -> Server_core.string_of_mode (Phhttpd.mode t))
        (Phhttpd.start ~proc ~config:cfg.phhttpd ())
  | Hybrid ->
      started "hybrid"
        (fun t -> Server_core.string_of_mode (Hybrid.mode t))
        (Hybrid.start ~proc ~config:cfg.hybrid ())

let run_gen ?arrivals ?measure ?mem_pool cfg =
  let engine = Engine.create ~seed:cfg.seed () in
  let host =
    Host.create ~engine ~costs:cfg.costs ~wake_policy:cfg.wake_policy
      ~hints_by_default:cfg.hints ?mem_limit:cfg.kernel_mem_limit ?mem_pool ()
  in
  let net =
    Sio_net.Network.create ~engine
      ?bandwidth_bits_per_sec:cfg.net_bandwidth_bits_per_sec ()
  in
  let proc = Process.create ~host ~fd_limit:cfg.server_fd_limit ~name:"server" () in
  let cfg = with_fs cfg host in
  let server = start_server cfg proc in
  let rng = Rng.split (Engine.rng engine) in
  let pool =
    Inactive.start ~engine ~net ~listener:server.listener ~workload:cfg.workload ~rng ()
  in
  (* Let the idle population establish before offering load. *)
  Engine.run ~until:cfg.settle engine;
  let client =
    Httperf.start ~engine ~net ~listener:server.listener ~workload:cfg.workload
      ?arrivals ~rng:(Rng.split (Engine.rng engine)) ()
  in
  let generation_duration =
    match measure with
    | Some d -> d
    | None -> Workload.generation_duration cfg.workload
  in
  let generation_end = Time.add (Engine.now engine) generation_duration in
  let horizon =
    Time.add generation_end (Time.add cfg.workload.Workload.client_timeout cfg.drain)
  in
  Engine.run ~until:horizon engine;
  let t_end = generation_end in
  let metrics = Httperf.metrics client ~t_end in
  let final_mode = server.mode () in
  server.stop ();
  Inactive.stop pool;
  ( {
      metrics;
      server_stats = server.stats;
      host_counters = host.Host.counters;
      cpu_utilization = Cpu.utilization host.Host.cpu ~now:(Engine.now engine);
      inactive_established = Inactive.established pool;
      inactive_reopens = Inactive.reopens pool;
      final_mode;
      kernel_mem_peak = host.Host.mem_peak;
      host_rss_bytes = Host_mem.rss_bytes ();
    },
    Httperf.reply_rates client ~until:t_end )

let run cfg = fst (run_gen cfg)

let run_routed ~arrivals ~measure ?mem_pool cfg =
  run_gen ~arrivals ~measure ?mem_pool cfg
