type handle = int

(* A handle packs the slot index and the slot's generation stamp at
   scheduling time. Slots are reused through a free list; every free
   bumps the generation, so handles to fired or cancelled events go
   stale in O(1) without any hashing. *)
let gen_bits = 31
let gen_mask = (1 lsl gen_bits) - 1

(* Per-slot cell: [(gen lsl 2) lor state]; state 0 is free. *)
let state_pending = 1
let state_cancelled = 2

let no_event = -1
let none = -1
let noop () = ()

(* Struct-of-arrays: an event is a slot index into parallel columns,
   and the heap orders slot indices by (time, seq). Scheduling and
   firing write into preallocated columns, so neither allocates once
   the arrays have grown to the queue's working size. *)
type t = {
  mutable time : int array; (* slot -> firing time *)
  mutable seq : int array; (* slot -> scheduling rank (FIFO tiebreak) *)
  mutable action : (unit -> unit) array; (* slot -> callback; [noop] once fired *)
  mutable cells : int array; (* slot -> (gen lsl 2) lor state *)
  mutable free : int array; (* stack of reusable slot indices *)
  mutable heap : int array; (* binary min-heap of slot indices *)
  mutable size : int; (* heap entries, cancelled ones included *)
  mutable free_len : int;
  mutable high_water : int; (* slots ever handed out *)
  mutable next_seq : int;
  mutable live : int;
}

let create ?(initial_capacity = 16) () =
  let cap = Stdlib.max 1 initial_capacity in
  {
    time = Array.make cap 0;
    seq = Array.make cap 0;
    action = Array.make cap noop;
    cells = Array.make cap 0;
    free = Array.make cap 0;
    heap = Array.make cap 0;
    size = 0;
    free_len = 0;
    high_water = 0;
    next_seq = 0;
    live = 0;
  }

let grow a cap fill =
  let b = Array.make (2 * cap) fill in
  Array.blit a 0 b 0 cap;
  b

(* Every column is indexed by slot (or holds at most one entry per
   slot), so they all share one capacity and grow together. *)
let alloc_slot q =
  if q.free_len > 0 then begin
    q.free_len <- q.free_len - 1;
    q.free.(q.free_len)
  end
  else begin
    let slot = q.high_water in
    let cap = Array.length q.cells in
    if slot = cap then begin
      q.time <- grow q.time cap 0;
      q.seq <- grow q.seq cap 0;
      q.action <- grow q.action cap noop;
      q.cells <- grow q.cells cap 0;
      q.free <- grow q.free cap 0;
      q.heap <- grow q.heap cap 0
    end;
    q.high_water <- slot + 1;
    slot
  end

(* The popped or discarded entry owned its slot: advance the
   generation (staling every outstanding handle to it), drop the
   action so the closure is not pinned, and recycle. *)
let free_slot q slot =
  let gen' = ((q.cells.(slot) lsr 2) + 1) land gen_mask in
  q.cells.(slot) <- gen' lsl 2;
  q.action.(slot) <- noop;
  q.free.(q.free_len) <- slot;
  q.free_len <- q.free_len + 1

let before q a b =
  let ta = q.time.(a) and tb = q.time.(b) in
  ta < tb || (ta = tb && q.seq.(a) < q.seq.(b))

let rec sift_up q i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    let s = q.heap.(i) and p = q.heap.(parent) in
    if before q s p then begin
      q.heap.(i) <- p;
      q.heap.(parent) <- s;
      sift_up q parent
    end
  end

let rec sift_down q i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = if l < q.size && before q q.heap.(l) q.heap.(i) then l else i in
  let smallest =
    if r < q.size && before q q.heap.(r) q.heap.(smallest) then r else smallest
  in
  if smallest <> i then begin
    let tmp = q.heap.(i) in
    q.heap.(i) <- q.heap.(smallest);
    q.heap.(smallest) <- tmp;
    sift_down q smallest
  end

(* Remove the heap root and free its slot; returns the slot. *)
let remove_top q =
  let slot = q.heap.(0) in
  q.size <- q.size - 1;
  if q.size > 0 then begin
    q.heap.(0) <- q.heap.(q.size);
    sift_down q 0
  end;
  slot

let schedule q ~at action =
  if Time.is_negative at then invalid_arg "Event_queue.schedule: negative time";
  let slot = alloc_slot q in
  let gen = q.cells.(slot) lsr 2 in
  q.cells.(slot) <- (gen lsl 2) lor state_pending;
  q.time.(slot) <- at;
  q.seq.(slot) <- q.next_seq;
  q.action.(slot) <- action;
  q.next_seq <- q.next_seq + 1;
  q.heap.(q.size) <- slot;
  q.size <- q.size + 1;
  sift_up q (q.size - 1);
  q.live <- q.live + 1;
  (slot lsl gen_bits) lor gen

let is_pending q h =
  let slot = h lsr gen_bits and gen = h land gen_mask in
  h >= 0 && slot < q.high_water && q.cells.(slot) = (gen lsl 2) lor state_pending

(* Lazy cancellation: mark the slot and release the action at once;
   the heap entry is dropped when it reaches the top. *)
let cancel q h =
  if is_pending q h then begin
    let slot = h lsr gen_bits in
    q.cells.(slot) <- (q.cells.(slot) lxor state_pending) lor state_cancelled;
    q.action.(slot) <- noop;
    q.live <- q.live - 1
  end

let rec drop_cancelled q =
  if q.size > 0 && q.cells.(q.heap.(0)) land 3 = state_cancelled then begin
    free_slot q (remove_top q);
    drop_cancelled q
  end

let peek_time q =
  drop_cancelled q;
  if q.size = 0 then no_event else q.time.(q.heap.(0))

let pop q =
  drop_cancelled q;
  if q.size = 0 then invalid_arg "Event_queue.pop: empty queue";
  let slot = remove_top q in
  let action = q.action.(slot) in
  free_slot q slot;
  q.live <- q.live - 1;
  action

let length q = q.live
let is_empty q = q.live = 0
