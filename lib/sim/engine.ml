type t = {
  queue : Event_queue.t;
  root_rng : Rng.t;
  mutable clock : Time.t;
  mutable executed : int;
}

let create ?(seed = 42) () =
  { queue = Event_queue.create (); root_rng = Rng.create ~seed; clock = Time.zero; executed = 0 }

let now e = e.clock
let rng e = e.root_rng

let at e t f =
  if t < e.clock then
    invalid_arg
      (Fmt.str "Engine.at: time %a is before now %a" Time.pp t Time.pp e.clock);
  Event_queue.schedule e.queue ~at:t f

let after e d f = at e (Time.add e.clock (Stdlib.max 0 d)) f

let cancel e h = Event_queue.cancel e.queue h

(* Fire the earliest event, already peeked at time [t]. *)
let fire e t =
  e.clock <- Stdlib.max e.clock t;
  let action = Event_queue.pop e.queue in
  e.executed <- e.executed + 1;
  action ()

let step e =
  let t = Event_queue.peek_time e.queue in
  if t = Event_queue.no_event then false
  else begin
    fire e t;
    true
  end

(* Each event is peeked once: no option or closure per event. *)
let run ?until e =
  let horizon = match until with Some h -> h | None -> max_int in
  let t = ref (Event_queue.peek_time e.queue) in
  while !t <> Event_queue.no_event && !t <= horizon do
    fire e !t;
    t := Event_queue.peek_time e.queue
  done;
  (* With a horizon, the clock advances to it even if the last event
     fired earlier: "run until t" leaves the simulation at t. *)
  match until with
  | Some horizon -> e.clock <- Stdlib.max e.clock horizon
  | None -> ()

let events_executed e = e.executed
let pending e = Event_queue.length e.queue
