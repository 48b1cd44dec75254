open Sio_sim
open Sio_kernel

type config = {
  backlog : int;
  conn : Conn.config;
  idle_timeout : Time.t;
  sweep_period : Time.t;
  sweep_cost_per_conn : Time.t;
  sample_interval : Time.t;
  signo : int;
  conn_table_cost_per_conn : Time.t;
  handoff_cost_per_conn : Time.t;
  rebuild_cost_per_conn : Time.t;
  max_events_per_iter : int;
}

let default_config =
  {
    backlog = 128;
    conn = Conn.default_config;
    idle_timeout = Time.s 60;
    sweep_period = Time.s 10;
    sweep_cost_per_conn = Time.us 2;
    sample_interval = Time.s 1;
    signo = Rt_signal.sigrtmin + 1;
    conn_table_cost_per_conn = Time.ns 1_500;
    handoff_cost_per_conn = Time.us 30;
    rebuild_cost_per_conn = Time.us 3;
    max_events_per_iter = 8;
  }

type mode = Server_core.mode = Signals | Polling

(* Who serves the connections: the signal worker, the worker while it
   hands every descriptor to the poll sibling, or the sibling on its
   own poll backend. *)
type phase = Signal_worker | Handing_off | Sibling of Backend.t

type state = {
  config : config;
  worker : Process.t; (* the signal worker thread *)
  signals : Backend.t; (* the worker's F_SETSIG routing, one signal per wait *)
  sibling : Process.t; (* the poll sibling (a Linux thread = own pid) *)
  mutable phase : phase;
}

type t = state Server_core.t

(* Move one descriptor from the signal worker's table to the poll
   sibling's: an SCM_RIGHTS message over their UNIX-domain socket pair,
   followed by the sibling growing its pollfd array. The socket itself
   is shared; only the descriptor changes hands (and number).
   [on_emfile] disposes of a socket the sibling has no room for. *)
let transfer_fd st ~backend ~mask ~on_emfile fd =
  match Process.close_fd st.worker fd with
  | Some (Process.Sock sock) when Socket.state sock <> Socket.Closed -> (
      match Process.install_socket st.sibling sock with
      | Ok new_fd ->
          Backend.add backend new_fd mask;
          Some new_fd
      | Error `Emfile ->
          on_emfile sock;
          None)
  | Some _ | None -> None

(* Overflow recovery, as the paper describes it (Section 6): flush
   pending signals, then pass every connection — listener included —
   one at a time over a UNIX-domain socket to the poll sibling, which
   rebuilds its pollfd array from scratch. Each transfer takes real CPU
   time during which nobody serves requests: "the added work and
   inefficiency of transferring each connection one at a time … will
   probably result in server meltdown". The server then stays in
   polling mode forever ("Brown never implemented this logic"). *)
let overflow_recovery core =
  let st = Server_core.state core in
  let stats = Server_core.stats core in
  stats.Server_stats.overflow_recoveries <- stats.Server_stats.overflow_recoveries + 1;
  stats.Server_stats.mode_switches <- stats.Server_stats.mode_switches + 1;
  st.phase <- Handing_off;
  ignore (Kernel.flush_signals st.worker);
  let backend = Backend.poll st.sibling in
  let host = Process.host st.worker in
  let per_fd = Time.add st.config.handoff_cost_per_conn st.config.rebuild_cost_per_conn in
  let drop sock =
    Socket.reset sock;
    stats.Server_stats.emfile_drops <- stats.Server_stats.emfile_drops + 1
  in
  let conns = Server_core.conns core in
  (* Handoff in ascending-fd order, listener first: each transfer costs
     simulated CPU, so the order is simulation-visible. Fd_map.to_list
     is already in that order; the snapshot survives the clear because
     transfers re-insert under the sibling's fd numbers as they
     complete. *)
  let entries = Fd_map.to_list conns in
  Fd_map.clear conns;
  let rec go listen_fd = function
    | [] ->
        st.phase <- Sibling backend;
        Server_core.hand_over core ~proc:st.sibling ~listen_fd;
        Server_core.resume core
    | (fd, conn) :: rest ->
        Host.charge_run host ~cost:per_fd (fun () ->
            (* A connection caught mid-send must come back as a
               writable interest or it stalls after the handoff. *)
            let mask = if Conn.sending conn then Pollmask.pollout else Pollmask.pollin in
            (match transfer_fd st ~backend ~mask ~on_emfile:drop fd with
            | Some new_fd -> Fd_map.set conns new_fd (Conn.with_fd conn ~fd:new_fd)
            | None -> ());
            go listen_fd rest)
  in
  Host.charge_run host ~cost:per_fd (fun () ->
      let fd = Server_core.listen_fd core in
      let moved = transfer_fd st ~backend ~mask:Pollmask.pollin ~on_emfile:Socket.close fd in
      go (Option.value moved ~default:fd) entries)

let after_signals core batch =
  if Ready_batch.overflowed batch then overflow_recovery core else Server_core.resume core

(* The backend serving the connections: the worker's RT signals until
   the handoff completes, the poll sibling's after it. *)
let serving core =
  let st = Server_core.state core in
  match st.phase with Sibling b -> b | Signal_worker | Handing_off -> st.signals

let policy =
  {
    Server_core.register = (fun core fd -> Backend.add (serving core) fd Pollmask.pollin);
    read_on_accept = true;
    (* The unfinished server's connection bookkeeping walks state that
       grows with every open connection — the cache-pressure cost the
       paper suspects behind Figures 12-13. Charged per handled event,
       in both signal and polling modes. *)
    charge_event =
      (fun core ->
        Kernel.compute (Server_core.proc core)
          (Time.mul (Server_core.state core).config.conn_table_cost_per_conn
             (Server_core.connection_count core)));
    charge_stale = true;
    (* In signal mode F_SETSIG already delivers POLLOUT edges through
       the same queue, so the modify is a no-op; the poll sibling must
       switch its recorded interest to writable. *)
    want_pollout = (fun core fd -> Backend.modify (serving core) fd Pollmask.pollout);
    (* Only the poll sibling keeps an interest set to shrink. *)
    forget =
      (fun core fd ->
        match (Server_core.state core).phase with
        | Sibling b -> Backend.remove b fd
        | Signal_worker | Handing_off -> ());
    wait =
      (fun core timeout ->
        let st = Server_core.state core in
        match st.phase with
        | Sibling backend ->
            Server_core.wait core backend ~max:st.config.max_events_per_iter ~timeout
              ~k:(fun core _ -> Server_core.resume core)
        | Signal_worker | Handing_off ->
            Server_core.wait core st.signals ~max:max_int ~timeout ~k:after_signals);
  }

let start ~proc ?(config = default_config) () =
  Server_core.start ~proc ~backlog:config.backlog ~conn:config.conn
    ~idle_timeout:config.idle_timeout ~sweep_period:config.sweep_period
    ~sweep_cost_per_conn:config.sweep_cost_per_conn ~sample_interval:config.sample_interval
    ~policy ~setup:(fun listen_fd ->
      let sibling =
        Process.create ~host:(Process.host proc)
          ~fd_limit:(Fd_table.limit (Process.fds proc))
          ~name:(Process.name proc ^ "-poll-sibling")
          ()
      in
      (* One event per syscall: sigwaitinfo semantics with the idle
         sweep's timeout. *)
      let signals = Backend.rt_signals ~signo:config.signo ~batch:1 proc in
      Backend.add signals listen_fd Pollmask.pollin;
      Ok { config; worker = proc; signals; sibling; phase = Signal_worker })

let listener = Server_core.listener
let stats = Server_core.stats
let connection_count = Server_core.connection_count

let mode core =
  match (Server_core.state core).phase with
  | Sibling _ -> Polling
  | Signal_worker | Handing_off -> Signals

let is_handing_off core =
  match (Server_core.state core).phase with
  | Handing_off -> true
  | Signal_worker | Sibling _ -> false

let sibling core = (Server_core.state core).sibling
let stop = Server_core.stop
