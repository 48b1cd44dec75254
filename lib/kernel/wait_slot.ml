open Sio_sim

type hooks = {
  rescan : cap:int -> Ready_batch.t -> int;
  sleep : Socket.waiter -> unit;
  unsleep : Socket.waiter -> unit;
  expire : cap:int -> Ready_batch.t -> unit;
  copyout : Ready_batch.t -> unit;
}

type t = {
  host : Host.t;
  batch : Ready_batch.t;
  waiter : Socket.waiter;
  on_timer : unit -> unit;
  deliver : unit -> unit;
  mutable hooks : hooks;
  mutable k : Ready_batch.t -> unit;
  mutable cap : int;
  mutable timeout : Time.t option;
  mutable timer : Event_queue.handle;
  mutable busy : bool;
}

let no_k (_ : Ready_batch.t) = ()

let complete s =
  s.hooks.copyout s.batch;
  Host.charge_run s.host ~cost:Time.zero s.deliver

let arm s =
  match s.timeout with
  | None -> ()
  | Some x -> s.timer <- Engine.after s.host.Host.engine x s.on_timer

(* Leave the wait queues and drop the timeout. *)
let cleanup s =
  s.hooks.unsleep s.waiter;
  Engine.cancel s.host.Host.engine s.timer;
  s.timer <- Event_queue.none

(* Woken: rescan the whole set, as Linux 2.2 does; a spurious wakeup
   (the event was consumed elsewhere) sleeps again with a fresh
   timeout. *)
let on_wake s =
  cleanup s;
  if s.hooks.rescan ~cap:s.cap s.batch > 0 then complete s
  else begin
    s.hooks.sleep s.waiter;
    arm s
  end

let on_timer s =
  s.timer <- Event_queue.none;
  cleanup s;
  s.hooks.expire ~cap:s.cap s.batch;
  complete s

let deliver s =
  s.busy <- false;
  let k = s.k in
  s.k <- no_k;
  k s.batch

let clear_on_expiry ~cap:_ batch = Ready_batch.clear batch

let unhooked =
  {
    rescan = (fun ~cap:_ batch -> Ready_batch.length batch);
    sleep = ignore;
    unsleep = ignore;
    expire = clear_on_expiry;
    copyout = ignore;
  }

let create ~host =
  let batch = Ready_batch.create () in
  let rec s =
    {
      host;
      batch;
      waiter = { Socket.wake = (fun _ -> on_wake s) };
      on_timer = (fun () -> on_timer s);
      deliver = (fun () -> deliver s);
      hooks = unhooked;
      k = no_k;
      cap = 0;
      timeout = None;
      timer = Event_queue.none;
      busy = false;
    }
  in
  s

let set_hooks s ~rescan ~sleep ~unsleep ?(expire = clear_on_expiry) ~copyout () =
  s.hooks <- { rescan; sleep; unsleep; expire; copyout }

let batch s = s.batch

let enter s ~cap ~k =
  Host.enter_syscall s.host;
  (* The instance's slot serves every call unless an earlier one has
     not delivered yet; an overlapping call gets a slot of its own so
     neither batch is overwritten under the other's reader. *)
  let s =
    if not s.busy then s
    else begin
      let fresh = create ~host:s.host in
      fresh.hooks <- s.hooks;
      fresh
    end
  in
  s.busy <- true;
  s.k <- k;
  s.cap <- cap;
  Ready_batch.clear s.batch;
  s

let must_sleep s ~ready ~timeout =
  let polling = match timeout with Some x -> x <= Time.zero | None -> false in
  if ready > 0 || polling then begin
    complete s;
    false
  end
  else begin
    s.timeout <- timeout;
    true
  end

let block s =
  s.hooks.sleep s.waiter;
  arm s

(* Sleeping on every socket of a poll or select set, charged per
   entry. *)
let sleep_on_sockets host sockets ~n w =
  List.iter (fun sock -> Socket.register_waiter sock w) sockets;
  ignore (Host.charge host (Time.mul host.Host.costs.Cost_model.wait_queue_register n))

let unsleep_sockets host sockets ~n w =
  List.iter (fun sock -> ignore (Socket.unregister_waiter sock w)) sockets;
  ignore (Host.charge host (Time.mul host.Host.costs.Cost_model.wait_queue_unregister n))

type queue = {
  q_host : Host.t;
  wq : Socket.waiter Wait_queue.t;
  mutable wake_mask : Pollmask.t; (* the edge [wake_one] passes on *)
  mutable wake_one : Socket.waiter -> unit;
}

(* One woken sleeper: charged, then handed the edge being posted. Built
   once per queue so a wakeup allocates no closure. *)
let wake_one q w =
  let counters = q.q_host.Host.counters in
  counters.Host.wait_queue_wakes <- counters.Host.wait_queue_wakes + 1;
  ignore (Host.charge q.q_host q.q_host.Host.costs.Cost_model.wait_queue_wake);
  w.Socket.wake q.wake_mask

let queue host =
  let q =
    { q_host = host; wq = Wait_queue.create (); wake_mask = Pollmask.empty; wake_one = ignore }
  in
  q.wake_one <- wake_one q;
  q

let wake_queue q mask =
  if not (Wait_queue.is_empty q.wq) then begin
    q.wake_mask <- mask;
    ignore (Wait_queue.wake q.wq ~policy:q.q_host.Host.wake_policy q.wake_one)
  end

let sleep_on_queue q w = Wait_queue.register q.wq w
let unsleep_queue q w = ignore (Wait_queue.unregister q.wq w)
