type t = int

let empty = 0x000
let pollin = 0x001
let pollpri = 0x002
let pollout = 0x004
let pollerr = 0x008
let pollhup = 0x010
let pollnval = 0x020
let pollremove = 0x1000

let all_bits = pollin lor pollpri lor pollout lor pollerr lor pollhup lor pollnval lor pollremove

let union = ( lor )
let inter = ( land )
let diff a b = a land lnot b
let mem flag mask = mask land flag = flag
let intersects a b = a land b <> 0
let is_empty m = m = 0
let equal = Int.equal
let readable = pollin lor pollpri
let forced = pollerr lor pollhup lor pollnval

let of_int i =
  if i land lnot all_bits <> 0 then invalid_arg "Pollmask.of_int: unknown bits"
  else i

let to_int m = m

let pp ppf m =
  if m = 0 then Fmt.string ppf "0"
  else begin
    let names =
      [
        (pollin, "IN");
        (pollpri, "PRI");
        (pollout, "OUT");
        (pollerr, "ERR");
        (pollhup, "HUP");
        (pollnval, "NVAL");
        (pollremove, "REMOVE");
      ]
    in
    let present = List.filter (fun (bit, _) -> mem bit m) names in
    Fmt.(list ~sep:(any "|") string) ppf (List.map snd present)
  end

let to_string m = Fmt.str "%a" pp m
