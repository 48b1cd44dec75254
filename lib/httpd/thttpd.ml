open Sio_sim
open Sio_kernel

type config = {
  backlog : int;
  conn : Conn.config;
  idle_timeout : Time.t;
  sweep_period : Time.t;
  sweep_cost_per_conn : Time.t;
  sample_interval : Time.t;
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
    max_events_per_iter = 8;
  }

(* The policy state: the backend every descriptor is registered
   with, and the per-iteration event bound. *)
type state = { backend : Backend.t; max_events_per_iter : int }
type t = state Server_core.t

let policy =
  {
    Server_core.register =
      (fun core fd -> Backend.add (Server_core.state core).backend fd Pollmask.pollin);
    read_on_accept = false;
    charge_event = ignore;
    charge_stale = false;
    want_pollout =
      (fun core fd -> Backend.modify (Server_core.state core).backend fd Pollmask.pollout);
    forget = (fun core fd -> Backend.remove (Server_core.state core).backend fd);
    wait =
      (fun core timeout ->
        let { backend; max_events_per_iter } = Server_core.state core in
        Server_core.wait core backend ~max:max_events_per_iter ~timeout
          ~k:(fun core _ -> Server_core.resume core));
  }

let start ~proc ~backend ?(config = default_config) () =
  Server_core.start ~proc ~backlog:config.backlog ~conn:config.conn
    ~idle_timeout:config.idle_timeout ~sweep_period:config.sweep_period
    ~sweep_cost_per_conn:config.sweep_cost_per_conn ~sample_interval:config.sample_interval
    ~policy ~setup:(fun listen_fd ->
      Backend.add backend listen_fd Pollmask.pollin;
      Ok { backend; max_events_per_iter = config.max_events_per_iter })

let listener = Server_core.listener
let stats = Server_core.stats
let connection_count = Server_core.connection_count
let stop = Server_core.stop
