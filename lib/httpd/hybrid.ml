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
  sigtimedwait4_batch : int;
  switch_streak : int;
  max_events : int;
  low_watermark : int;
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
    sigtimedwait4_batch = 8;
    switch_streak = 4;
    max_events = 64;
    low_watermark = 4;
  }

type mode = Server_core.mode = Signals | Polling

type state = {
  config : config;
  signals : Backend.t; (* F_SETSIG to [config.signo], batch [sigtimedwait4_batch] *)
  backend : Backend.t; (* /dev/poll state, maintained in both modes *)
  mutable mode : mode;
  mutable full_batch_streak : int;
}

type t = state Server_core.t

(* Every switch is counted and flushes the signal queue. The interest
   set already lives in the kernel: switching is a flush plus a mode
   flag, not a per-connection handoff. *)
let flush core =
  let stats = Server_core.stats core in
  stats.Server_stats.mode_switches <- stats.Server_stats.mode_switches + 1;
  ignore (Kernel.flush_signals (Server_core.proc core))

let switch_to_polling core =
  flush core;
  (Server_core.state core).mode <- Polling

let switch_to_signals core =
  let st = Server_core.state core in
  flush core;
  (* Drain anything that became ready between the flush and now; its
     edges predate the flush so no signal will ever announce it. *)
  Server_core.wait core st.backend ~max:max_int ~timeout:Time.zero
    ~k:(fun core _ ->
      st.mode <- Signals;
      Server_core.resume core)

let after_signals core batch =
  let st = Server_core.state core in
  let overflowed = Ready_batch.overflowed batch in
  (* A run of full batches means the queue is backing up: switch
     before it overflows. The SIGIO counts as one of the batch. At
     batch 1 every delivery is full, so a streak says nothing about
     load and only the overflow switches. *)
  let delivered = Ready_batch.length batch + if overflowed then 1 else 0 in
  if st.config.sigtimedwait4_batch > 1 && delivered >= st.config.sigtimedwait4_batch then
    st.full_batch_streak <- st.full_batch_streak + 1
  else st.full_batch_streak <- 0;
  if overflowed then begin
    let stats = Server_core.stats core in
    stats.Server_stats.overflow_recoveries <- stats.Server_stats.overflow_recoveries + 1;
    switch_to_polling core
  end
  else if st.full_batch_streak >= st.config.switch_streak then begin
    st.full_batch_streak <- 0;
    switch_to_polling core
  end;
  Server_core.resume core

let after_poll core batch =
  if Ready_batch.length batch < (Server_core.state core).config.low_watermark then
    switch_to_signals core
  else Server_core.resume core

let policy =
  {
    Server_core.register =
      (fun core fd ->
        let st = Server_core.state core in
        (* Both registrations, kept concurrently: the cheap switch. *)
        Backend.add st.signals fd Pollmask.pollin;
        Backend.add st.backend fd Pollmask.pollin);
    read_on_accept = true;
    charge_event = ignore;
    charge_stale = true;
    (* The /dev/poll interest set is maintained in both modes, so one
       modify covers polling mode; in signal mode F_SETSIG already
       delivers POLLOUT edges. *)
    want_pollout =
      (fun core fd -> Backend.modify (Server_core.state core).backend fd Pollmask.pollout);
    forget = (fun core fd -> Backend.remove (Server_core.state core).backend fd);
    wait =
      (fun core timeout ->
        let st = Server_core.state core in
        match st.mode with
        | Signals -> Server_core.wait core st.signals ~max:max_int ~timeout ~k:after_signals
        | Polling -> Server_core.wait core st.backend ~max:max_int ~timeout ~k:after_poll);
  }

let start ~proc ?(config = default_config) () =
  Server_core.start ~proc ~backlog:config.backlog ~conn:config.conn
    ~idle_timeout:config.idle_timeout ~sweep_period:config.sweep_period
    ~sweep_cost_per_conn:config.sweep_cost_per_conn ~sample_interval:config.sample_interval
    ~policy ~setup:(fun listen_fd ->
      match Backend.devpoll ~max_events:config.max_events proc with
      | Error `Emfile -> Error `Emfile
      | Ok backend ->
          let signals =
            Backend.rt_signals ~signo:config.signo ~batch:config.sigtimedwait4_batch proc
          in
          Backend.add signals listen_fd Pollmask.pollin;
          Backend.add backend listen_fd Pollmask.pollin;
          Ok { config; signals; backend; mode = Signals; full_batch_streak = 0 })

let listener = Server_core.listener
let stats = Server_core.stats
let connection_count = Server_core.connection_count
let mode core = (Server_core.state core).mode
let stop = Server_core.stop
