open Sio_sim

type counters = {
  mutable syscalls : int;
  mutable driver_polls : int;
  mutable hint_skips : int;
  mutable wait_queue_wakes : int;
  mutable rt_enqueued : int;
  mutable rt_dropped : int;
  mutable rt_overflows : int;
  mutable softirqs : int;
  mutable accepts : int;
  mutable connections_refused : int;
}

(* A kernel-memory budget shared by several hosts (the shard cluster's
   shared-reservation mode): admission happens against one atomic
   counter, so the shards' combined footprint honours one limit even
   when they simulate on separate domains. Reservation is a
   fetch-and-add with rollback — never a lock — and the peak is a
   monotonic CAS race upward. *)
type mem_pool = {
  pool_limit : int;
  pool_used : int Atomic.t;
  pool_peak : int Atomic.t;
}

let shared_mem_pool ~limit =
  if limit < 0 then invalid_arg "Host.shared_mem_pool: negative limit";
  { pool_limit = limit; pool_used = Atomic.make 0; pool_peak = Atomic.make 0 }

let pool_used p = Atomic.get p.pool_used
let pool_peak p = Atomic.get p.pool_peak

type t = {
  engine : Engine.t;
  cpu : Cpu.t;
  costs : Cost_model.t;
  wake_policy : Wait_queue.wake_policy;
  counters : counters;
  hints_by_default : bool;
  arena : Conn_arena.t;
  mem_limit : int;
  mem_pool : mem_pool option;
  mutable mem_used : int;
  mutable mem_peak : int;
}

let fresh_counters () =
  {
    syscalls = 0;
    driver_polls = 0;
    hint_skips = 0;
    wait_queue_wakes = 0;
    rt_enqueued = 0;
    rt_dropped = 0;
    rt_overflows = 0;
    softirqs = 0;
    accepts = 0;
    connections_refused = 0;
  }

let create ~engine ?(costs = Cost_model.default)
    ?(wake_policy = Wait_queue.Wake_all) ?(infinitely_fast = false)
    ?(hints_by_default = true) ?(mem_limit = max_int) ?mem_pool () =
  let cpu =
    if infinitely_fast then Cpu.infinitely_fast ~engine else Cpu.create ~engine
  in
  {
    engine;
    cpu;
    costs;
    wake_policy;
    counters = fresh_counters ();
    hints_by_default;
    arena = Conn_arena.create ();
    mem_limit;
    mem_pool;
    mem_used = 0;
    mem_peak = 0;
  }

let now t = Engine.now t.engine
let charge t cost = Cpu.consume t.cpu cost
let charge_run t ~cost k = Cpu.run t.cpu ~cost k

let enter_syscall t =
  t.counters.syscalls <- t.counters.syscalls + 1;
  ignore (charge t t.costs.Cost_model.syscall_entry)

(* Modeled kernel memory: admission either fully reserves or refuses;
   no partial grants, so [mem_used] is always a sum of whole
   per-connection reservations. *)
let pool_reserve p n =
  let before = Atomic.fetch_and_add p.pool_used n in
  if before > p.pool_limit - n then begin
    ignore (Atomic.fetch_and_add p.pool_used (-n));
    false
  end
  else begin
    let after = before + n in
    let rec bump () =
      let peak = Atomic.get p.pool_peak in
      if after > peak && not (Atomic.compare_and_set p.pool_peak peak after) then
        bump ()
    in
    bump ();
    true
  end

let mem_reserve t n =
  if n < 0 then invalid_arg "Host.mem_reserve: negative size";
  if t.mem_used > t.mem_limit - n then false
  else begin
    let admitted =
      match t.mem_pool with Some p -> pool_reserve p n | None -> true
    in
    if admitted then begin
      t.mem_used <- t.mem_used + n;
      if t.mem_used > t.mem_peak then t.mem_peak <- t.mem_used;
      true
    end
    else false
  end

let mem_release t n =
  t.mem_used <- t.mem_used - n;
  match t.mem_pool with
  | Some p -> ignore (Atomic.fetch_and_add p.pool_used (-n))
  | None -> ()
