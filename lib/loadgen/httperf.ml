open Sio_sim
open Sio_net
open Sio_kernel

type conn_state = {
  started : Time.t;
  mutable received : int;
  mutable finished : bool;
  mutable timer : Event_queue.handle option;
}

type t = {
  engine : Engine.t;
  net : Network.t;
  listener : Socket.t;
  w : Workload.t;
  on_done : unit -> unit;
  request_text : string;
  expected_bytes : int;
  errors : Metrics.errors;
  latency : Histogram.t;
  sampler : Sampler.t;
  start_time : Time.t;
  rng : Rng.t;
  total : int; (* connections this client will offer *)
  mutable attempted : int;
  mutable completed : int;
  mutable terminal : int;
  mutable fds : int;
  ports : Port_pool.t;
}

let now t = Engine.now t.engine

(* Every connection ends exactly once; afterwards the descriptor is
   returned immediately and the port only after TIME_WAIT — except for
   RST-terminated connections, which skip the quarantine. *)
let finish ?(rst = false) t st =
  if not st.finished then begin
    st.finished <- true;
    (match st.timer with
    | Some h ->
        Engine.cancel t.engine h;
        st.timer <- None
    | None -> ());
    t.fds <- t.fds - 1;
    if rst then Port_pool.release_immediately t.ports else Port_pool.release t.ports;
    t.terminal <- t.terminal + 1;
    if t.terminal = t.total then t.on_done ()
  end

let launch t =
  t.attempted <- t.attempted + 1;
  if t.fds >= t.w.Workload.client_fd_limit then begin
    t.errors.Metrics.fd_limited <- t.errors.Metrics.fd_limited + 1;
    t.terminal <- t.terminal + 1;
    if t.terminal = t.total then t.on_done ()
  end
  else if not (Port_pool.acquire t.ports) then begin
    t.errors.Metrics.port_limited <- t.errors.Metrics.port_limited + 1;
    t.terminal <- t.terminal + 1;
    if t.terminal = t.total then t.on_done ()
  end
  else begin
    t.fds <- t.fds + 1;
    let st = { started = now t; received = 0; finished = false; timer = None } in
    let extra_latency = Sio_net.Latency_profile.draw t.w.Workload.active_latency t.rng in
    let conn_ref = ref None in
    let abort_and_finish () =
      (match !conn_ref with Some c -> Tcp.client_abort c | None -> ());
      finish ~rst:true t st
    in
    let handlers =
      {
        Tcp.on_established =
          (fun c ->
            if not st.finished then
              Tcp.client_send c ~bytes_len:(String.length t.request_text)
                ~payload:t.request_text);
        on_refused =
          (fun _ ->
            if not st.finished then begin
              t.errors.Metrics.refused <- t.errors.Metrics.refused + 1;
              finish ~rst:true t st
            end);
        on_bytes =
          (fun c n ->
            if not st.finished then begin
              st.received <- st.received + n;
              if st.received >= t.expected_bytes then begin
                t.completed <- t.completed + 1;
                Sampler.record t.sampler ~now:(now t);
                Histogram.add t.latency (Time.sub (now t) st.started);
                Tcp.client_close c;
                finish t st
              end
            end);
        on_server_fin =
          (fun c ->
            if not st.finished then begin
              (* FIN before the full response: the server dropped us. *)
              t.errors.Metrics.truncated <- t.errors.Metrics.truncated + 1;
              Tcp.client_close c;
              finish t st
            end);
        on_reset =
          (fun _ ->
            if not st.finished then begin
              t.errors.Metrics.resets <- t.errors.Metrics.resets + 1;
              finish ~rst:true t st
            end);
      }
    in
    let conn = Tcp.connect ~net:t.net ~listener:t.listener ~extra_latency ~handlers () in
    conn_ref := Some conn;
    st.timer <-
      Some
        (Engine.after t.engine t.w.Workload.client_timeout (fun () ->
             st.timer <- None;
             if not st.finished then begin
               t.errors.Metrics.timeouts <- t.errors.Metrics.timeouts + 1;
               abort_and_finish ()
             end))
  end

let start ~engine ~net ~listener ~workload ?arrivals ?rng ?(on_done = fun () -> ())
    () =
  if workload.Workload.request_rate <= 0 then
    invalid_arg "Httperf.start: request rate must be positive";
  let total =
    match arrivals with
    | Some ts -> List.length ts
    | None -> workload.Workload.total_connections
  in
  let t =
    {
      engine;
      net;
      listener;
      w = workload;
      on_done;
      request_text = Sio_httpd.Http.build_request ~path:workload.Workload.document_path;
      expected_bytes =
        Sio_httpd.Http.response_bytes ~body_bytes:workload.Workload.doc_bytes;
      errors =
        {
          Metrics.timeouts = 0;
          refused = 0;
          resets = 0;
          fd_limited = 0;
          port_limited = 0;
          truncated = 0;
        };
      latency = Histogram.create ();
      sampler = Sampler.create ~interval:(Time.s 1);
      start_time = Engine.now engine;
      rng = (match rng with Some r -> r | None -> Rng.create ~seed:0);
      total;
      attempted = 0;
      completed = 0;
      terminal = 0;
      fds = 0;
      ports =
        Port_pool.create ~engine ~ports:workload.Workload.ephemeral_ports
          ~time_wait:workload.Workload.time_wait;
    }
  in
  (match arrivals with
  | Some ts ->
      (* Cluster mode: the steering pre-pass supplies this shard's
         slice of the global schedule as offsets from now. Pin the
         sampler's origin to the common client start so every shard
         measures on the same absolute grid and per-interval rates
         sum exactly across shards. *)
      Sampler.record_n t.sampler ~now:t.start_time 0;
      List.iter
        (fun off ->
          ignore
            (Engine.at engine (Time.add t.start_time off) (fun () -> launch t)))
        ts
  | None ->
      (* Deterministic spacing: connection i departs at i / rate. *)
      let interval_ns = 1_000_000_000 / workload.Workload.request_rate in
      for i = 0 to workload.Workload.total_connections - 1 do
        ignore
          (Engine.at engine
             (Time.add t.start_time (Time.ns (i * interval_ns)))
             (fun () -> launch t))
      done);
  t

let attempted t = t.attempted
let completed t = t.completed
let errors t = t.errors
let in_flight t = t.attempted - t.terminal
let is_done t = t.terminal >= t.total
let reply_rates t ~until = Sampler.rates t.sampler ~until
let fds_in_use t = t.fds
let ports_in_use t = Port_pool.in_use t.ports

let metrics t ~t_end =
  Metrics.make ~target_rate:t.w.Workload.request_rate ~attempted:t.attempted
    ~completed:t.completed ~errors:t.errors ~latency:t.latency
    ~duration:(Time.sub t_end t.start_time)
    (Sampler.rates t.sampler ~until:t_end)
