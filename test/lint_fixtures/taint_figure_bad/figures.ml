(* A figure whose x axis is not the request rate: the idle count. Its
   point builder measures the host's RSS instead of a modeled
   quantity, so every point it returns is host-dependent. *)
type t = { axis : string; xs : int list }

let idle_scaling = { axis = "idle"; xs = [ 501; 2000 ] }
let run fig = List.map (fun x -> { Sweep.x; outcome = Host_mem.rss_bytes () }) fig.xs
