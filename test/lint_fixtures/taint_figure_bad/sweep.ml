(* Carrier: a figure point, whatever the figure's x axis. *)
type point = { x : int; outcome : int }
