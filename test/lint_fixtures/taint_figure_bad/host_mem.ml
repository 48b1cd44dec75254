(* Source module: reads procfs, so [rss_bytes] is host-dependent. *)
let page = 4096

let rss_bytes () =
  let ic = open_in "/proc/self/statm" in
  let v = int_of_string (input_line ic) in
  close_in ic;
  v * page
