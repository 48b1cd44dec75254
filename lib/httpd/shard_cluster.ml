(* SO_REUSEPORT-style accept steering for an N-shard server.

   The cluster model mirrors how multi-core servers actually scale
   past a single event loop: N independent shards, each with its own
   listener, backend event loop, connection-table slice and
   [Server_stats], behind a steering function that assigns every
   incoming connection to exactly one shard. Steering is a
   deterministic pre-pass over the global arrival schedule — a pure
   function of (policy, shard count, client population, seed) — so a
   cluster run is reproducible no matter how the shards are later
   simulated (sequentially or one domain per shard).

   Three policies, matching the knobs real load balancers expose:

   - [Round_robin]: connection i goes to shard i mod N. Perfectly
     balanced by construction; needs per-packet LB state.
   - [Hash_tuple]: hash of the client 4-tuple mod N — the kernel's
     SO_REUSEPORT default. Stateless, but every connection from one
     tuple pins to one shard, so a skewed client population (NAT
     boxes, proxies) polarises load.
   - [Least_loaded]: the balancer tracks an estimate of each shard's
     outstanding connections (departures modelled as arrival +
     [est_service]) and picks the least-loaded shard, lowest index
     winning ties. *)

open Sio_sim

type policy = Round_robin | Hash_tuple | Least_loaded

let policy_name = function
  | Round_robin -> "round-robin"
  | Hash_tuple -> "hash"
  | Least_loaded -> "least-loaded"

(* The client population steering sees. [tuples = 0] models the
   benchmark default — every connection arrives from a distinct
   ephemeral 4-tuple, so hashing spreads load near-uniformly.
   [tuples = k] with [skew > 0] models k distinct client endpoints
   with Zipf(skew) popularity: the head tuples carry most of the
   connections, and any tuple-hashing policy inherits that
   imbalance. *)
type population = { tuples : int; skew : float }

let uniform_population = { tuples = 0; skew = 0. }

(* Which tuple does connection i belong to? Drawn once, sequentially,
   from a private SplitMix stream: deterministic in (seed, i). *)
let tuple_keys ~population ~seed n =
  match population.tuples with
  | 0 -> Array.init n (fun i -> i)
  | k when k < 0 -> invalid_arg "Shard_cluster: negative tuple population"
  | k ->
      let rng = Rng.create ~seed:(Rng.derive ~seed 0x7e5) in
      if population.skew <= 0. then Array.init n (fun _ -> Rng.int rng k)
      else begin
        (* Zipf(s) over ranks 1..k via inverse-CDF on the cumulative
           weight table; O(k) setup, O(log k) per draw. *)
        let cum = Array.make k 0. in
        let acc = ref 0. in
        for r = 0 to k - 1 do
          acc := !acc +. (1. /. Float.pow (float_of_int (r + 1)) population.skew);
          cum.(r) <- !acc
        done;
        let total = !acc in
        Array.init n (fun _ ->
            let u = Rng.float rng total in
            let lo = ref 0 and hi = ref (k - 1) in
            while !lo < !hi do
              let mid = (!lo + !hi) / 2 in
              if cum.(mid) > u then hi := mid else lo := mid + 1
            done;
            !lo)
      end

(* Stateless 4-tuple hash: mix the tuple key through SplitMix so
   nearby tuples land on unrelated shards (the kernel hashes the real
   address/port words; the mix stands in for that). *)
let hash_shard ~seed ~shards key =
  Rng.derive ~seed:(Rng.derive ~seed 0x4a11) key land max_int mod shards

let route ~policy ~shards ?(population = uniform_population)
    ?(est_service = Time.ms 50) ~seed arrivals =
  if shards <= 0 then invalid_arg "Shard_cluster.route: shards must be positive";
  let n = Array.length arrivals in
  match policy with
  | Round_robin -> Array.init n (fun i -> i mod shards)
  | Hash_tuple ->
      let keys = tuple_keys ~population ~seed n in
      Array.map (fun key -> hash_shard ~seed ~shards key) keys
  | Least_loaded ->
      (* One pass over the schedule in arrival order: retire modelled
         departures up to each arrival, then pick the emptiest shard. *)
      let load = Array.make shards 0 in
      let departures =
        Heap.create ~leq:(fun (ta, _) (tb, _) -> Time.compare ta tb <= 0) ()
      in
      Array.map
        (fun at ->
          let rec drain () =
            match Heap.peek departures with
            | Some (t, shard) when Time.compare t at <= 0 ->
                ignore (Heap.pop departures);
                load.(shard) <- load.(shard) - 1;
                drain ()
            | Some _ | None -> ()
          in
          drain ();
          let best = ref 0 in
          for s = 1 to shards - 1 do
            if load.(s) < load.(!best) then best := s
          done;
          load.(!best) <- load.(!best) + 1;
          Heap.push departures (Time.add at est_service, !best);
          !best)
        arrivals

(* Even split of an idle population (or any per-shard resource):
   shard s gets the remainder-adjusted share, low indices first. *)
let split_evenly ~shards total =
  if shards <= 0 then invalid_arg "Shard_cluster.split_evenly: shards must be positive";
  Array.init shards (fun s -> (total / shards) + if s < total mod shards then 1 else 0)

let shard_counts ~shards assignment =
  let counts = Array.make shards 0 in
  Array.iter (fun s -> counts.(s) <- counts.(s) + 1) assignment;
  counts

(* Deterministic merge of per-shard server stats: pure counter sums
   plus an absolute-time sampler merge — order-insensitive, so the
   merged record is identical whether shards simulated sequentially
   or on a Domain_pool. *)
let merge_stats stats = Server_stats.merge stats
