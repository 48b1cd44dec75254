(* The benchmark's four workloads. Each builds an [Experiment.config]
   from the seed and nothing else. The seed goes only into
   [config.seed], which the engine's generator turns into every random
   draw of the run (idle-client latencies and reopen times). The
   offered load is the figures': httperf on the LAN at a fixed rate.
   Where a workload has no random draw on its request path, as with
   churn and bulk's single idle connection, every seed gives the same
   modeled run; only the host clock differs. *)

open Sio_sim
open Sio_loadgen

type size = Full | Tiny

type t = { name : string; config : seed:int -> size -> Experiment.config }

let seeded ~seed (cfg : Experiment.config) = { cfg with Experiment.seed }

let workload ~rate ~conns ~idle =
  {
    Workload.default with
    Workload.request_rate = rate;
    total_connections = conns;
    inactive_connections = idle;
  }

let pick size ~full ~tiny = match size with Full -> full | Tiny -> tiny

(* fig5's series held at one rate: thttpd on /dev/poll (mmap, batch
   64), one idle connection, 6 KB document. 50k connections at
   1000/s stay under the 60 000-port TIME_WAIT wall (60 s x rate). *)
let churn ~seed size =
  let conns = pick size ~full:50_000 ~tiny:1_000 in
  let kind = Experiment.Thttpd_devpoll { use_mmap = true; max_events = 64 } in
  seeded ~seed (Experiment.default_config ~kind ~workload:(workload ~rate:1000 ~conns ~idle:1))

(* The idle-scaling figure's epoll point at 35 000 idle connections,
   with that figure's per-point settings: fd limit idle+2048, backlog
   4096, settle 2 s + idle/5000. *)
let idle35k ~seed size =
  let idle = pick size ~full:35_000 ~tiny:2_000 in
  let conns = pick size ~full:25_000 ~tiny:500 in
  let kind = Experiment.Thttpd_epoll { max_events = 64 } in
  let base = Experiment.default_config ~kind ~workload:(workload ~rate:500 ~conns ~idle) in
  seeded ~seed
    {
      base with
      Experiment.server_fd_limit = idle + 2048;
      settle = Time.s (2 + (idle / 5000));
      thttpd = { base.Experiment.thttpd with Sio_httpd.Thttpd.backlog = 4096 };
    }

(* fig12's series below its knee: phhttpd on RT signals, 251 idle. *)
let rtsig ~seed size =
  let conns = pick size ~full:60_000 ~tiny:1_000 in
  seeded ~seed
    (Experiment.default_config ~kind:Experiment.Phhttpd ~workload:(workload ~rate:500 ~conns ~idle:251))

(* The response-size figure's 64 KB ring point: epoll, Ring transmit,
   600/s, 1 Gbit link, backlog 4096, 10 s client timeout. *)
let bulk ~seed size =
  let conns = pick size ~full:30_000 ~tiny:600 in
  let w =
    {
      (workload ~rate:600 ~conns ~idle:1) with
      Workload.doc_bytes = 65_536;
      client_timeout = Time.s 10;
    }
  in
  let base = Experiment.default_config ~kind:(Experiment.Thttpd_epoll { max_events = 64 }) ~workload:w in
  seeded ~seed
    {
      base with
      Experiment.transmit = Sio_httpd.Conn.Ring;
      thttpd = { base.Experiment.thttpd with Sio_httpd.Thttpd.backlog = 4096 };
      net_bandwidth_bits_per_sec = Some 1_000_000_000;
    }

let all =
  [
    { name = "churn"; config = churn };
    { name = "idle35k"; config = idle35k };
    { name = "rtsig"; config = rtsig };
    { name = "bulk"; config = bulk };
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) all
