open Sio_sim
open Sio_kernel

type mode = Signals | Polling

let string_of_mode = function Signals -> "signals" | Polling -> "polling"

type 'p t = {
  mutable proc : Process.t;
  mutable listen_fd : int;
  listener : Socket.t;
  conns : Conn.t Fd_map.t;
  stats : Server_stats.t;
  conn : Conn.config;
  idle_timeout : Time.t;
  sweep_period : Time.t;
  sweep_cost_per_conn : Time.t;
  policy : 'p policy;
  state : 'p;
  mutable next_sweep : Time.t;
  mutable stopped : bool;
  (* The wait in progress: at most [max] events to dispatch, then
     [k]. [on_batch] is the one continuation every wait hands the
     kernel, built once per server. *)
  mutable max : int;
  mutable k : 'p t -> Ready_batch.t -> unit;
  mutable on_batch : Ready_batch.t -> unit;
}

and 'p policy = {
  register : 'p t -> int -> unit;
  read_on_accept : bool;
  charge_event : 'p t -> unit;
  charge_stale : bool;
  want_pollout : 'p t -> int -> unit;
  forget : 'p t -> int -> unit;
  wait : 'p t -> Time.t -> unit;
}

let now t = Host.now (Process.host t.proc)

let drop_conn t fd =
  ignore (Fd_map.remove t.conns fd);
  t.policy.forget t fd

let handle_conn_event t fd =
  t.policy.charge_event t;
  match Fd_map.find t.conns fd with
  | None ->
      (* An event for a connection that is already gone: a stale RT
         signal, or a level-triggered report racing a close. *)
      t.stats.Server_stats.stale_events <- t.stats.Server_stats.stale_events + 1;
      if t.policy.charge_stale then Kernel.compute t.proc t.conn.Conn.read_spin_cost
  | Some conn -> (
      let was_sending = Conn.sending conn in
      match Conn.handle_event t.proc t.conn conn ~now:(now t) with
      | Conn.Replied n ->
          t.stats.Server_stats.bytes_sent <- t.stats.Server_stats.bytes_sent + n;
          Server_stats.record_reply t.stats ~now:(now t);
          drop_conn t fd
      | Conn.Again -> ()
      | Conn.Blocked n ->
          (* Response bigger than the send buffer: park the connection
             on POLLOUT and keep streaming on writable edges. *)
          t.stats.Server_stats.bytes_sent <- t.stats.Server_stats.bytes_sent + n;
          t.stats.Server_stats.partial_writes <-
            t.stats.Server_stats.partial_writes + 1;
          if not was_sending then t.policy.want_pollout t fd
      | Conn.Closed_by_peer ->
          t.stats.Server_stats.dropped_conns <- t.stats.Server_stats.dropped_conns + 1;
          drop_conn t fd)

let rec accept_pending t =
  match Kernel.accept t.proc t.listen_fd with
  | Ok (fd, _sock) ->
      Fd_map.set t.conns fd (Conn.create ~fd ~now:(now t));
      t.policy.register t fd;
      t.stats.Server_stats.accepted <- t.stats.Server_stats.accepted + 1;
      if t.policy.read_on_accept then handle_conn_event t fd;
      accept_pending t
  | Error `Eagain -> ()
  | Error `Emfile ->
      (* Connection was dropped by the kernel; try the next one. *)
      t.stats.Server_stats.emfile_drops <- t.stats.Server_stats.emfile_drops + 1;
      accept_pending t
  | Error `Enobufs ->
      (* Kernel memory exhausted; the connection was dropped. *)
      t.stats.Server_stats.enobufs_drops <- t.stats.Server_stats.enobufs_drops + 1;
      accept_pending t
  | Error (`Ebadf | `Einval) -> ()

let dispatch t fd = if fd = t.listen_fd then accept_pending t else handle_conn_event t fd

(* Bounded per-iteration work: events past [max] stay ready and
   reappear in the next level-triggered scan. *)
let dispatch_batch t batch ~max =
  for i = 0 to Stdlib.min max (Ready_batch.length batch) - 1 do
    dispatch t (Ready_batch.fd batch i)
  done

(* Walk all connections, closing the ones idle past the timeout. This
   is thttpd's periodic timer: its cost scales with the number of open
   connections, active or not. *)
let sweep t =
  let n = Fd_map.length t.conns in
  Kernel.compute t.proc (Time.mul t.sweep_cost_per_conn n);
  let cutoff = Time.sub (now t) t.idle_timeout in
  (* Fd_map iterates in ascending fd order and tolerates removal of
     the current key, so expired connections close in-place — same
     close order as the old snapshot-and-sort, without the snapshot. *)
  Fd_map.iter t.conns (fun fd conn ->
      if Conn.last_activity conn <= cutoff then begin
        ignore (Kernel.close t.proc fd);
        drop_conn t fd;
        t.stats.Server_stats.timed_out_conns <- t.stats.Server_stats.timed_out_conns + 1
      end);
  t.next_sweep <- Time.add (now t) t.sweep_period

let rec loop t =
  if not t.stopped then
    t.policy.wait t (Time.max (Time.ns 1) (Time.sub t.next_sweep (now t)))

and resume t =
  if now t >= t.next_sweep then sweep t;
  Kernel.yield t.proc (fun () -> loop t)

let on_batch t batch =
  if not t.stopped then begin
    let k = t.k in
    dispatch_batch t batch ~max:t.max;
    k t batch
  end

let wait t backend ~max ~timeout ~k =
  t.max <- max;
  t.k <- k;
  Backend.wait backend ~timeout:(Some timeout) ~k:t.on_batch

let no_k _ _ = ()

let start ~proc ~backlog ~conn ~idle_timeout ~sweep_period ~sweep_cost_per_conn
    ~sample_interval ~policy ~setup =
  match Kernel.listen proc ~backlog with
  | Error (`Emfile | `Ebadf | `Eagain | `Einval) -> Error `Emfile
  | Ok listen_fd -> (
      match setup listen_fd with
      | Error `Emfile -> Error `Emfile
      | Ok state ->
          let listener =
            match Process.lookup_socket proc listen_fd with
            | Some s -> s
            | None -> assert false
          in
          let t =
            {
              proc;
              listen_fd;
              listener;
              conns = Fd_map.create ~initial_capacity:256 ();
              stats = Server_stats.create ~sample_interval ();
              conn;
              idle_timeout;
              sweep_period;
              sweep_cost_per_conn;
              policy;
              state;
              next_sweep = Time.add (Host.now (Process.host proc)) sweep_period;
              stopped = false;
              max = 0;
              k = no_k;
              on_batch = ignore;
            }
          in
          t.on_batch <- on_batch t;
          loop t;
          Ok t)

let hand_over t ~proc ~listen_fd =
  t.proc <- proc;
  t.listen_fd <- listen_fd

let state t = t.state
let proc t = t.proc
let listen_fd t = t.listen_fd
let conns t = t.conns
let listener t = t.listener
let stats t = t.stats
let connection_count t = Fd_map.length t.conns
let stop t = t.stopped <- true
