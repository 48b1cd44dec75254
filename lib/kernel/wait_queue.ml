type 'w t = { mutable waiters : 'w list (* newest first *) }

type wake_policy = Wake_all | Wake_one

let create () = { waiters = [] }

let register q w = q.waiters <- w :: q.waiters

(* The list without its first [w], or [None] when [w] is absent. *)
let rec remove w = function
  | [] -> None
  | x :: rest when x == w -> Some rest
  | x :: rest -> ( match remove w rest with None -> None | Some r -> Some (x :: r))

let unregister q w =
  match remove w q.waiters with
  | None -> false
  | Some rest ->
      q.waiters <- rest;
      true

let wake q ~policy f =
  match (policy, q.waiters) with
  | _, [] -> 0
  | _, [ w ] ->
      (* One sleeper, the common case: no list to reverse. *)
      q.waiters <- [];
      f w;
      1
  | Wake_all, _ ->
      let ws = List.rev q.waiters in
      q.waiters <- [];
      List.iter f ws;
      List.length ws
  | Wake_one, _ -> (
      (* oldest waiter first: FIFO fairness *)
      match List.rev q.waiters with
      | [] -> 0
      | oldest :: rest ->
          q.waiters <- List.rev rest;
          f oldest;
          1)

let length q = List.length q.waiters
let is_empty q = q.waiters = []
