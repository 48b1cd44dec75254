(* The one CSV writer: every figure's series goes through it. *)
let row (p : Sweep.point) = string_of_int p.Sweep.x ^ "," ^ string_of_int p.Sweep.outcome
let csv_of_series ~axis points = String.concat "\n" (axis :: List.map row points)
