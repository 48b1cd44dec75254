(** The uniform event-notification interface the servers code against.

    The paper's thttpd modification swaps poll() for /dev/poll behind
    exactly this seam: declare / retract interest in descriptors, then
    wait for a batch of events. Classic poll() keeps the interest set
    in user space and rebuilds the pollfd array on every call; the
    /dev/poll backend maintains it in the kernel and optionally maps
    the result area. *)

open Sio_sim
open Sio_kernel

type t

val name : t -> string

val add : t -> int -> Pollmask.t -> unit
(** Declare interest in a descriptor (replaces any previous mask). *)

val modify : t -> int -> Pollmask.t -> unit
val remove : t -> int -> unit

val wait : t -> timeout:Time.t option -> k:(Ready_batch.t -> unit) -> unit
(** Wait for the next batch of events (at most the backend's
    [max_events] per call): descriptors with their ready masks, in
    the mechanism's reporting order. The batch belongs to the backend
    and is valid until its next [wait]. *)

val interest_count : t -> int

val poll : Process.t -> t
(** Classic poll(): user-space interest set, array rebuilt and copied
    per call. *)

val devpoll :
  ?use_mmap:bool -> ?max_events:int -> Process.t -> (t, [ `Emfile ]) result
(** The paper's /dev/poll: opens the device on creation. [use_mmap]
    (default true) allocates the shared result mapping. [max_events]
    (default 64) bounds one batch, and sizes the mapping. *)

val select : Process.t -> t
(** select(2): the pre-poll interface, with its FD_SETSIZE=1024 wall —
    {!add} raises [Invalid_argument] past it. Write interest is folded
    into the write set; everything else is treated as read interest. *)

val epoll : ?max_events:int -> Process.t -> t
(** The epoll-style ready-list interface (level-triggered): where the
    paper's line of work ended up. O(ready) waits regardless of the
    interest-set size. *)
