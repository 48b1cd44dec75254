(** select(2), the oldest of the interfaces in the paper's lineage.

    Semantically equivalent to {!Poll.wait} over read/write/except
    sets, but with select's own pathologies: the kernel scans every
    descriptor from 0 to [nfds - 1] whether or not it is in a set
    (charging the per-fd copy for the three bitmaps), and nothing
    above {!Fd_set.fd_setsize} can be watched at all — the 1024-fd
    wall the paper's httperf had to be modified around. Provided so
    the benches can show the full select → poll → /dev/poll
    progression. *)

open Sio_sim

type result = { readable : Fd_set.t; writable : Fd_set.t; except : Fd_set.t }

val select :
  host:Host.t ->
  lookup:(int -> Socket.t option) ->
  read:Fd_set.t ->
  write:Fd_set.t ->
  except:Fd_set.t ->
  timeout:Time.t option ->
  k:(result -> unit) ->
  unit
(** Pass {!Fd_set.create}[ ()] for sets you do not care about. The result sets contain the
    ready descriptors (select's destructive-update semantics, returned
    functionally). Closed descriptors are reported in [except], the
    closest select analogue of POLLNVAL. *)

val scan_cost : host:Host.t -> nfds:int -> Time.t
(** Deterministic cost of one select scan with [nfds = max_fd + 1]. *)

(** A stateful select set mirroring thttpd's usage (one read set that
    doubles as the except set, one write set, re-submitted every loop
    iteration), kept between calls so the host-side walk is O(active)
    while the charged costs, operation counters, and returned bitmaps
    stay identical to {!select} over the same bitmaps. Idle members
    (last seen reporting nothing on a live socket) are charged
    analytically via {!Cost_model.charge_batch}; socket watchers
    re-activate them on any readiness edge. *)
module Sset : sig
  type sset

  val create : host:Host.t -> lookup:(int -> Socket.t option) -> unit -> sset

  val add : sset -> int -> Pollmask.t -> unit
  (** Readable interest sets the fd's read (= except) bit, POLLOUT
      interest its write bit; a mask with neither removes the fd. *)

  val remove : sset -> int -> unit
  val mem : sset -> int -> bool

  val active_fds : sset -> int list
  (** Non-idle-certified fds, ascending; test hook for the churn
      equivalence property. *)

  val scan_sset : sset -> result * int
  (** One charged scan pass (exposed for cost-equivalence tests). *)

  val wait_sset : sset -> timeout:Time.t option -> k:(Ready_batch.t -> unit) -> unit
  (** One select() call over the set; charges as {!select}. The result
      bitmaps arrive as one event per descriptor (POLLIN, POLLOUT or
      POLLERR, a readable descriptor merged into its neighbour's
      event when they coincide) in the order thttpd's select loop
      visits them: readable descending, then writable, then
      exceptional. The batch is the set's own, valid until its next
      [wait_sset] (see {!Wait_slot}). *)
end
