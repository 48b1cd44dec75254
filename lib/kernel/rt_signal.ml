open Sio_sim

type siginfo = { signo : int; fd : int; band : Pollmask.t }
type delivery = Signal of siginfo | Overflow

let sigrtmin = 32

(* The queued signals: a binary min-heap ordered by (signo, seq) —
   POSIX delivery order — kept as parallel int columns indexed by heap
   position, so queueing and dequeuing a signal allocate nothing. It
   shadows [Sio_sim.Heap], whose boxed entries it replaces here, and
   shares that module's O(log pending) cost in the complexity
   certificate. *)
module Heap = struct
  type t = {
    mutable signo : int array;
    mutable fd : int array;
    mutable band : Pollmask.t array;
    mutable seq : int array;
    mutable size : int;
  }

  let create () =
    {
      signo = Array.make 16 0;
      fd = Array.make 16 0;
      band = Array.make 16 Pollmask.empty;
      seq = Array.make 16 0;
      size = 0;
    }

  let length h = h.size
  let is_empty h = h.size = 0
  let clear h = h.size <- 0

  let before h i j =
    h.signo.(i) < h.signo.(j) || (h.signo.(i) = h.signo.(j) && h.seq.(i) < h.seq.(j))

  let move h ~src ~dst =
    h.signo.(dst) <- h.signo.(src);
    h.fd.(dst) <- h.fd.(src);
    h.band.(dst) <- h.band.(src);
    h.seq.(dst) <- h.seq.(src)

  let swap h i j =
    let signo = h.signo.(i) and fd = h.fd.(i) and band = h.band.(i) and seq = h.seq.(i) in
    move h ~src:j ~dst:i;
    h.signo.(j) <- signo;
    h.fd.(j) <- fd;
    h.band.(j) <- band;
    h.seq.(j) <- seq

  let rec sift_up h i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if before h i parent then begin
        swap h i parent;
        sift_up h parent
      end
    end

  let rec sift_down h i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let smallest = if l < h.size && before h l i then l else i in
    let smallest = if r < h.size && before h r smallest then r else smallest in
    if smallest <> i then begin
      swap h i smallest;
      sift_down h smallest
    end

  let grow a fill =
    let b = Array.make (2 * Array.length a) fill in
    Array.blit a 0 b 0 (Array.length a);
    b

  let push h ~signo ~fd ~band ~seq =
    if h.size = Array.length h.signo then begin
      h.signo <- grow h.signo 0;
      h.fd <- grow h.fd 0;
      h.band <- grow h.band Pollmask.empty;
      h.seq <- grow h.seq 0
    end;
    let i = h.size in
    h.signo.(i) <- signo;
    h.fd.(i) <- fd;
    h.band.(i) <- band;
    h.seq.(i) <- seq;
    h.size <- i + 1;
    sift_up h i

  (* Drop the root (the caller has read it). *)
  let remove_top h =
    h.size <- h.size - 1;
    if h.size > 0 then begin
      move h ~src:h.size ~dst:0;
      sift_down h 0
    end
end

(* The observer token of an F_SETSIG binding is arena-native: it
   lives in the bound socket's {!Conn_arena} cold slot under this
   queue's attach key; the queue keeps only an fd -> socket-handle
   index so rebinds and clears can find the old socket. *)
type Conn_arena.cold += Rt_binding of { token : int }

type queue = {
  host : Host.t;
  limit : int;
  heap : Heap.t;
  mutable next_seq : int;
  mutable sigio : bool;
  key : int; (* attach key naming this queue's bindings *)
  bindings : Socket.t Fd_map.t; (* fd -> socket the signal is bound on *)
  waiters : (unit -> unit) Queue.t; (* blocked callers: each dequeues for itself *)
  batch : Ready_batch.t; (* results of the sigtimedwait4 being delivered *)
  mutable delivering : bool; (* [batch] is spoken for until delivery *)
  mutable pending_k : Ready_batch.t -> unit;
  mutable last_signo : int; (* of the last signal [take] dequeued *)
  mutable deliver : unit -> unit;
}

let no_k (_ : Ready_batch.t) = ()

let create_queue ~host ?(limit = 1024) () =
  if limit <= 0 then invalid_arg "Rt_signal.create_queue: limit must be positive";
  let q =
    {
      host;
      limit;
      heap = Heap.create ();
      next_seq = 0;
      sigio = false;
      key = Socket.new_attach_key ();
      bindings = Fd_map.create ~initial_capacity:64 ();
      waiters = Queue.create ();
      batch = Ready_batch.create ();
      delivering = false;
      pending_k = no_k;
      last_signo = 0;
      deliver = ignore;
    }
  in
  q.deliver <-
    (fun () ->
      q.delivering <- false;
      let k = q.pending_k in
      q.pending_k <- no_k;
      k q.batch);
  q

let pending q = Heap.length q.heap
let sigio_pending q = q.sigio
let limit q = q.limit

(* Dequeue up to [max] deliveries into [batch]; assumes something is
   available. SIGIO is a classic signal: numerically below SIGRTMIN,
   so it is delivered before any queued RT signal, as the batch's
   overflow flag, and takes one of the [max] places. *)
let[@complexity "O(ready)"] take q max batch =
  let costs = q.host.Host.costs in
  Ready_batch.clear batch;
  if q.sigio then begin
    q.sigio <- false;
    ignore (Host.charge q.host costs.Cost_model.rt_dequeue);
    Ready_batch.set_overflow batch
  end;
  let room = if Ready_batch.overflowed batch then max - 1 else max in
  while Ready_batch.length batch < room && not (Heap.is_empty q.heap) do
    let h = q.heap in
    ignore (Host.charge q.host costs.Cost_model.rt_dequeue);
    q.last_signo <- h.Heap.signo.(0);
    Ready_batch.push batch h.Heap.fd.(0) h.Heap.band.(0);
    Heap.remove_top h
  done

(* How a dequeue returns to its caller: sigtimedwait4's batch, or
   sigwaitinfo's single delivery (which carries the signal number). *)
type return_to = Batch of (Ready_batch.t -> unit) | One of (delivery -> unit)

let return_batch q b ~own k =
  if own then begin
    q.delivering <- true;
    q.pending_k <- k;
    Host.charge_run q.host ~cost:Time.zero q.deliver
  end
  else Host.charge_run q.host ~cost:Time.zero (fun () -> k b)

let return_one q b k =
  let d =
    if Ready_batch.overflowed b then Overflow
    else Signal { signo = q.last_signo; fd = Ready_batch.fd b 0; band = Ready_batch.mask b 0 }
  in
  Host.charge_run q.host ~cost:Time.zero (fun () -> k d)

(* Dequeue for a waiting caller and schedule its return. The queue's
   own batch serves the common single sigtimedwait4 caller; a caller
   whose return would overlap one still pending gets a fresh batch. *)
let serve q ~max ret =
  let own = not q.delivering in
  let b = if own then q.batch else Ready_batch.create () in
  take q max b;
  match ret with Batch k -> return_batch q b ~own k | One k -> return_one q b k

(* A timed-out sigtimedwait4 returns an empty batch of its own;
   sigwaitinfo never times out. *)
let return_empty k = k (Ready_batch.create ~initial_capacity:1 ())
let expire = function Batch k -> return_empty k | One _ -> ()

let available q = q.sigio || not (Heap.is_empty q.heap)

let service_waiters q =
  while (not (Queue.is_empty q.waiters)) && available q do
    (Queue.take q.waiters) ()
  done

let enqueue q ~signo ~fd ~band =
  let costs = q.host.Host.costs in
  let counters = q.host.Host.counters in
  if Heap.length q.heap >= q.limit then begin
    (* Queue exhausted: drop the signal; raise SIGIO once. *)
    counters.Host.rt_dropped <- counters.Host.rt_dropped + 1;
    if not q.sigio then begin
      q.sigio <- true;
      counters.Host.rt_overflows <- counters.Host.rt_overflows + 1
    end
  end
  else begin
    counters.Host.rt_enqueued <- counters.Host.rt_enqueued + 1;
    ignore (Host.charge q.host costs.Cost_model.rt_enqueue);
    Heap.push q.heap ~signo ~fd ~band ~seq:q.next_seq;
    q.next_seq <- q.next_seq + 1
  end;
  service_waiters q

let set_signal q ~socket ~fd ~signo =
  if signo < sigrtmin then invalid_arg "Rt_signal.set_signal: signo below SIGRTMIN";
  let costs = q.host.Host.costs in
  Host.enter_syscall q.host;
  ignore (Host.charge q.host costs.Cost_model.fcntl_call);
  (match Fd_map.find q.bindings fd with
  | Some old_sock ->
      (match Socket.attachment old_sock ~key:q.key with
      | Some (Rt_binding { token }) ->
          Socket.unsubscribe old_sock token;
          Socket.detach old_sock ~key:q.key
      | Some _ | None -> ());
      ignore (Fd_map.remove q.bindings fd)
  | None -> ());
  let token =
    Socket.subscribe socket (fun band -> enqueue q ~signo ~fd ~band)
  in
  Socket.attach socket ~key:q.key (Rt_binding { token });
  Fd_map.set q.bindings fd socket

let clear_signal q ~socket ~fd =
  let costs = q.host.Host.costs in
  Host.enter_syscall q.host;
  ignore (Host.charge q.host costs.Cost_model.fcntl_call);
  match Fd_map.find q.bindings fd with
  | Some bound_sock when bound_sock == socket ->
      (match Socket.attachment bound_sock ~key:q.key with
      | Some (Rt_binding { token }) ->
          Socket.unsubscribe bound_sock token;
          Socket.detach bound_sock ~key:q.key
      | Some _ | None -> ());
      ignore (Fd_map.remove q.bindings fd)
  | Some _ | None -> ()

(* Enter the syscall and dequeue, or block until an enqueue can
   serve the caller. A timeout that expires while the caller still
   waits returns empty; its timer is never cancelled — it fires and
   finds the caller gone. *)
let[@complexity "O(ready)"] wait_general q ~max ~timeout ret =
  let costs = q.host.Host.costs in
  Host.enter_syscall q.host;
  ignore (Host.charge q.host costs.Cost_model.sigwait_call);
  if available q then serve q ~max ret
  else
    match timeout with
    | Some t when t <= Time.zero ->
        Host.charge_run q.host ~cost:Time.zero (fun () -> expire ret)
    | _ -> (
        let waiter () = serve q ~max ret in
        Queue.add waiter q.waiters;
        match timeout with
        | None -> ()
        | Some t ->
            ignore
              (Engine.after q.host.Host.engine t (fun () ->
                   (* This linear removal only runs on timeouts, which
                      are rare in every workload we model. *)
                   let still_waiting = ref false in
                   let ws = Queue.to_seq q.waiters |> List.of_seq in
                   Queue.clear q.waiters;
                   List.iter
                     (fun w ->
                       if w == waiter then still_waiting := true else Queue.add w q.waiters)
                     ws;
                   if !still_waiting then expire ret)))

let[@complexity "O(ready)"] sigwaitinfo q ~k = wait_general q ~max:1 ~timeout:None (One k)

let[@complexity "O(ready)"] sigtimedwait4 q ~max ~timeout ~k =
  if max <= 0 then invalid_arg "Rt_signal.sigtimedwait4: max must be positive";
  wait_general q ~max ~timeout (Batch k)

let flush q =
  let dropped = Heap.length q.heap in
  Heap.clear q.heap;
  q.sigio <- false;
  dropped
