type request = { meth : string; path : string }

let build_request ~path =
  Printf.sprintf "GET %s HTTP/1.0\r\nHost: server\r\nUser-Agent: httperf/0.8\r\n\r\n" path

let request_bytes ~path = String.length (build_request ~path)

(* Offset of the first CRLFCRLF at or after [i], or -1. Scans in
   place: no substring per candidate offset, and no closure. *)
let rec terminator_from s i =
  if i + 4 > String.length s then -1
  else if
    String.unsafe_get s i = '\r'
    && String.unsafe_get s (i + 1) = '\n'
    && String.unsafe_get s (i + 2) = '\r'
    && String.unsafe_get s (i + 3) = '\n'
  then i
  else terminator_from s (i + 1)

let is_complete s = terminator_from s 0 >= 0

(* First occurrence of [c] in [s] within [from, stop), or [stop]. *)
let rec index_before s c ~from ~stop =
  if from >= stop || String.unsafe_get s from = c then from
  else index_before s c ~from:(from + 1) ~stop

(* The request line is exactly "METHOD SP PATH SP VERSION" up to the
   first CR, VERSION starting with "HTTP/"; any other number of spaces
   is malformed. Only the returned request is allocated: the common
   method is shared rather than copied. *)
let parse_request s =
  if not (is_complete s) then Error `Incomplete
  else
    let eol = index_before s '\r' ~from:0 ~stop:(String.length s) in
    let sp1 = index_before s ' ' ~from:0 ~stop:eol in
    let sp2 = if sp1 < eol then index_before s ' ' ~from:(sp1 + 1) ~stop:eol else eol in
    if
      sp2 >= eol
      || index_before s ' ' ~from:(sp2 + 1) ~stop:eol < eol
      || eol - (sp2 + 1) < 5
      || not
           (String.unsafe_get s (sp2 + 1) = 'H'
           && String.unsafe_get s (sp2 + 2) = 'T'
           && String.unsafe_get s (sp2 + 3) = 'T'
           && String.unsafe_get s (sp2 + 4) = 'P'
           && String.unsafe_get s (sp2 + 5) = '/')
    then Error `Malformed
    else
      let meth =
        if sp1 = 3 && s.[0] = 'G' && s.[1] = 'E' && s.[2] = 'T' then "GET"
        else String.sub s 0 sp1
      in
      Ok { meth; path = String.sub s (sp1 + 1) (sp2 - sp1 - 1) }

(* The response head is a fixed template around the decimal body
   length, so its size is the template's plus the digit count. *)
let head_template_bytes =
  String.length
    "HTTP/1.0 200 OK\r\nServer: thttpd-sim\r\nContent-Type: text/html\r\nContent-Length: \r\n\r\n"

let decimal_width n =
  if n < 0 then String.length (string_of_int n)
  else
    let rec go n w = if n < 10 then w else go (n / 10) (w + 1) in
    go n 1

let response_head_bytes ~body_bytes = head_template_bytes + decimal_width body_bytes

let header_bytes = response_head_bytes

let response_bytes ~body_bytes = response_head_bytes ~body_bytes + body_bytes

let default_document_bytes = 6144
