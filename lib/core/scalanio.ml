(** Scalanio: scalable network I/O, after Provos & Lever (2000).

    The one-stop entry point. A downstream application typically:

    + builds a simulated world — {!Engine}, {!Host}, {!Network},
      {!Process};
    + creates an {!Event_loop} over one {!Backend.kind}: the paper's
      three mechanisms (poll, /dev/poll, RT signals) or their
      neighbours select and epoll;
    + watches descriptors and runs.

    The full benchmark study lives in {!Figures} (one entry per figure
    of the paper) with the underlying machinery re-exported below. *)

(* Simulation substrate *)
module Time = Sio_sim.Time
module Engine = Sio_sim.Engine
module Rng = Sio_sim.Rng
module Stats = Sio_sim.Stats
module Histogram = Sio_sim.Histogram

(* Network substrate *)
module Network = Sio_net.Network
module Link = Sio_net.Link
module Latency_profile = Sio_net.Latency_profile

(* Simulated kernel *)
module Host = Sio_kernel.Host
module Cpu = Sio_kernel.Cpu
module Fd_table = Sio_kernel.Fd_table
module Cost_model = Sio_kernel.Cost_model
module Process = Sio_kernel.Process
module Kernel = Sio_kernel.Kernel
module Socket = Sio_kernel.Socket
module Pollmask = Sio_kernel.Pollmask
module Ready_batch = Sio_kernel.Ready_batch
module Poll = Sio_kernel.Poll
module Devpoll = Sio_kernel.Devpoll
module Rt_signal = Sio_kernel.Rt_signal
module Tcp = Sio_kernel.Tcp
module Fs = Sio_kernel.Fs
module Page_cache = Sio_kernel.Page_cache
module Fd_set = Sio_kernel.Fd_set
module Select = Sio_kernel.Select
module Epoll = Sio_kernel.Epoll

(* Servers and HTTP *)
module Http = Sio_httpd.Http
module Backend = Sio_httpd.Backend
module Server_core = Sio_httpd.Server_core
module Thttpd = Sio_httpd.Thttpd
module Phhttpd = Sio_httpd.Phhttpd
module Hybrid = Sio_httpd.Hybrid

(* Measurement harness *)
module Workload = Sio_loadgen.Workload
module Httperf = Sio_loadgen.Httperf
module Inactive = Sio_loadgen.Inactive
module Metrics = Sio_loadgen.Metrics
module Experiment = Sio_loadgen.Experiment
module Sweep = Sio_loadgen.Sweep
module Report = Sio_loadgen.Report

(* This library's own surface *)
module Event_loop = Event_loop
module Figures = Figures
