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

let begin_call s ~cap ~k =
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

let block s ~timeout =
  s.timeout <- timeout;
  s.hooks.sleep s.waiter;
  arm s
