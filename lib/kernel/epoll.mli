(** An epoll-style interface: where this line of work ended up.

    The paper's /dev/poll (with hints) still *scans* its interest set
    on every DP_POLL, paying a per-interest hash probe and hint check
    even for idle descriptors. The mechanism that shipped in Linux 2.6
    as epoll closes that gap with a {e ready list}: the driver hint
    path appends the descriptor to a queue, and a wait call pays only
    O(ready). This module implements that design over exactly the same
    socket/hint infrastructure as {!Devpoll}, so the benches can show
    the whole progression select → poll → /dev/poll → epoll.

    Both level-triggered (default, re-armed while the descriptor stays
    ready) and edge-triggered operation are supported. *)

open Sio_sim

type t

type trigger = Level | Edge

val create : host:Host.t -> lookup:(int -> Socket.t option) -> t

val ctl_add :
  t -> fd:int -> events:Pollmask.t -> ?trigger:trigger -> unit ->
  (unit, [ `Eexist | `Ebadf ]) result
(** EPOLL_CTL_ADD. [`Ebadf] when the descriptor does not resolve;
    [`Eexist] when already registered. An already-ready descriptor is
    queued immediately (no lost startup events). *)

val ctl_mod :
  t -> fd:int -> events:Pollmask.t -> (unit, [ `Enoent ]) result

val ctl_del : t -> fd:int -> (unit, [ `Enoent ]) result

val wait :
  t ->
  max_events:int ->
  timeout:Time.t option ->
  k:(Ready_batch.t -> unit) ->
  unit
(** Pops up to [max_events] entries off the ready list, validating
    each against the driver (a stale entry whose readiness evaporated
    is dropped, per real epoll). Level-triggered descriptors that
    remain ready are re-queued. Blocks when the list is empty. The
    batch is the instance's own, valid until its next wait (see
    {!Wait_slot}). *)

val interest_count : t -> int
val ready_count : t -> int
val close : t -> unit
