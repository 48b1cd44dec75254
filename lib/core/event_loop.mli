(** A small event-notification library over the simulated kernel — the
    paper's contribution packaged the way a downstream application
    would consume it.

    Register a callback per descriptor, pick a notification mechanism
    (one {!Sio_httpd.Backend.kind}), and run:

    - [Select]: select(2), with its FD_SETSIZE wall;
    - [Poll]: classic poll(); the interest array lives in user space
      and is re-submitted on every wait. Simple, legacy-compatible,
      O(interest set) per wait.
    - [Devpoll]: the paper's /dev/poll with driver hints and
      (optionally) the shared result mapping; interest changes are
      incremental, waits cost O(ready).
    - [Epoll]: the ready list this line of work became; O(ready).
    - [Rt_signals]: F_SETSIG delivery picked up with sigwaitinfo (or
      the batching sigtimedwait4 when [batch > 1]). On queue overflow
      the loop recovers exactly as the paper prescribes: flush, one
      recovery poll() over the whole watch set, and continue — so no
      event is ever lost, at a cost that grows with the watch set.

    Level-triggered semantics throughout: a callback fires as long as
    its descriptor stays ready, which makes the backends
    interchangeable. Timers ride on the same loop. *)

open Sio_sim
open Sio_kernel

type t

val create : proc:Process.t -> backend:Sio_httpd.Backend.kind -> (t, [ `Emfile ]) result
(** Raises [Invalid_argument] on an [Rt_signals] kind with a signo
    below SIGRTMIN or a non-positive batch. *)

val backend_name : t -> string

val watch : t -> fd:int -> events:Pollmask.t -> (Pollmask.t -> unit) -> unit
(** [watch loop ~fd ~events f] calls [f revents] whenever [fd] has any
    of [events] (or an error/hangup condition). Re-watching an fd
    replaces its callback and mask. *)

val unwatch : t -> int -> unit

val watched_count : t -> int

val add_timer : t -> after:Time.t -> (unit -> unit) -> Event_queue.handle
(** One-shot timer on the loop's engine. *)

val add_periodic : t -> every:Time.t -> (unit -> unit) -> unit
(** Fires until {!stop}. *)

val run : t -> unit
(** Starts dispatching; returns immediately (the simulation engine
    drives the loop). Raises [Invalid_argument] if already running. *)

val stop : t -> unit

val overflow_recoveries : t -> int
(** Times the RT-signal backend fell back to a recovery poll. 0 for
    other backends. *)
