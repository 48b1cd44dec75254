(* Run a single (server x workload) benchmark experiment and print its
   metrics: the quick way to poke the system from a shell. *)

open Cmdliner
open Sio_loadgen

let server_conv = Arg.conv (Experiment.kind_of_string, Experiment.pp_server_kind)

let run server rate conns inactive seed verbose =
  let workload =
    {
      Workload.default with
      Workload.request_rate = rate;
      total_connections = conns;
      inactive_connections = inactive;
    }
  in
  let cfg = { (Experiment.default_config ~kind:server ~workload) with Experiment.seed } in
  Fmt.pr "server=%a workload=[%a]@." Experiment.pp_server_kind server Workload.pp workload;
  let o = Experiment.run cfg in
  Fmt.pr "%a@." Metrics.pp_row_header ();
  Fmt.pr "%a@." Metrics.pp_row o.Experiment.metrics;
  Fmt.pr "server: %a@." Sio_httpd.Server_stats.pp o.Experiment.server_stats;
  Fmt.pr "cpu: %.1f%%  inactive: %d established, %d reopens  mode: %s@."
    (100. *. o.Experiment.cpu_utilization)
    o.Experiment.inactive_established o.Experiment.inactive_reopens
    o.Experiment.final_mode;
  if verbose then begin
    let c = o.Experiment.host_counters in
    Fmt.pr
      "kernel: syscalls=%d driver_polls=%d hint_skips=%d wakes=%d softirqs=%d rt_enq=%d rt_drop=%d overflows=%d refused=%d@."
      c.Sio_kernel.Host.syscalls c.Sio_kernel.Host.driver_polls
      c.Sio_kernel.Host.hint_skips c.Sio_kernel.Host.wait_queue_wakes
      c.Sio_kernel.Host.softirqs c.Sio_kernel.Host.rt_enqueued
      c.Sio_kernel.Host.rt_dropped c.Sio_kernel.Host.rt_overflows
      c.Sio_kernel.Host.connections_refused
  end

let server_arg =
  Arg.(
    value
    & opt server_conv (Experiment.Thttpd_devpoll { use_mmap = true; max_events = 64 })
    & info [ "s"; "server" ] ~docv:"SERVER"
        ~doc:"Server to benchmark: select, poll, devpoll, devpoll-nommap, epoll, phhttpd, hybrid.")

let rate_arg =
  Arg.(value & opt int 700 & info [ "r"; "rate" ] ~docv:"RATE" ~doc:"Target request rate per second.")

let conns_arg =
  Arg.(
    value & opt int 7000
    & info [ "n"; "connections" ] ~docv:"N" ~doc:"Total connections to offer (paper: 35000).")

let inactive_arg =
  Arg.(
    value & opt int 1
    & info [ "i"; "inactive" ] ~docv:"N" ~doc:"Concurrent inactive connections (paper: 1, 251, 501).")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Simulation seed.")

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Also print kernel counters.")

let cmd =
  let doc = "run one scalanio benchmark experiment" in
  Cmd.v
    (Cmd.info "sio_run" ~doc)
    Term.(const run $ server_arg $ rate_arg $ conns_arg $ inactive_arg $ seed_arg $ verbose_arg)

let () = exit (Cmd.eval cmd)
