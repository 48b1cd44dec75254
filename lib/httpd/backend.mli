(** The uniform event-notification interface the servers code against.

    The paper's thttpd modification swaps poll() for /dev/poll behind
    exactly this seam: declare / retract interest in descriptors, then
    wait for a batch of events. Classic poll() keeps the interest set
    in user space and rebuilds the pollfd array on every call; the
    /dev/poll backend maintains it in the kernel and optionally maps
    the result area; RT signals route each descriptor's edges to the
    process's signal queue and report a queue overflow as the batch's
    {!Ready_batch.overflowed} flag. How to recover from an overflow is
    left to the caller. *)

open Sio_sim
open Sio_kernel

(** Every notification mechanism, as one value: the paper's three and
    their neighbours. *)
type kind =
  | Select  (** select(2): FD_SETSIZE-limited, the pre-poll baseline *)
  | Poll  (** classic poll() *)
  | Devpoll of { use_mmap : bool; max_events : int }  (** the paper's /dev/poll *)
  | Epoll of { max_events : int }
      (** ready-list notification: the post-paper mechanism *)
  | Rt_signals of { signo : int; batch : int }
      (** F_SETSIG delivery, [batch] signals per sigtimedwait4 (1 is
          sigwaitinfo) *)

type t

val create : kind -> Process.t -> (t, [ `Emfile ]) result
(** The backend for [kind] on [proc]'s descriptors. [`Emfile] when
    /dev/poll cannot be opened. *)

val name : t -> string

val add : t -> int -> Pollmask.t -> unit
(** Declare interest in a descriptor (replaces any previous mask). *)

val modify : t -> int -> Pollmask.t -> unit
val remove : t -> int -> unit

val wait : t -> timeout:Time.t option -> k:(Ready_batch.t -> unit) -> unit
(** Wait for the next batch of events (at most the backend's
    [max_events], or [batch] signals, per call): descriptors with
    their ready masks, in
    the mechanism's reporting order. The batch belongs to the backend
    and is valid until its next [wait]. *)

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

val rt_signals : signo:int -> batch:int -> Process.t -> t
(** POSIX RT signals: {!add} is F_SETSIG to [signo] (the mask is
    ignored: every edge is reported, with its band as the mask),
    {!modify} does nothing, {!remove} clears F_SETSIG, and {!wait} is
    sigtimedwait4 for at most [batch] signals. A SIGIO that overflowed
    ahead of the batch sets {!Ready_batch.overflowed}; the caller
    flushes and recovers. Named [rtsig], or [rtsig-batched] when
    [batch > 1]. Raises [Invalid_argument] when [signo] is below
    {!Rt_signal.sigrtmin} or [batch] is not positive. *)
