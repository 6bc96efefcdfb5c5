(* The per-layer metrics of traced runs, with their units. Every traced
   run prints all of them; a layer a workload never calls reads 0 with
   0 samples (e.g. the cache layers on sweep-cells). BENCHMARK.json's
   [per_layer] list is this list. *)

let all =
  [ ("solver.acs_ms", "ms"); ("solver.wcs_ms", "ms");
    ("solver.outer_iters", "count"); ("solver.inner_iters", "count");
    ("solver.ns_per_inner_iter", "ns"); ("solver.minor_words", "words");
    ("robust.solve_ms", "ms"); ("robust.acs_reject_share", "share");
    ("robust.acs_reject_validate", "count"); ("robust.fallback_share", "share");
    ("validate.check_us", "us"); ("breaker.open_count", "count");
    ("sim.simulate_ms", "ms"); ("sim.rounds_per_s", "1/s");
    ("sim.minor_words", "words"); ("request.parse_us", "us");
    ("cache.find_us", "us"); ("cache.store_us", "us");
    ("cache.hit_share", "share"); ("cache.stale_share", "share");
    ("cache.miss_share", "share"); ("cache.evictions", "count");
    ("cache.save_ms", "ms"); ("cache.snapshot_kb", "KiB");
    ("cache.load_ms", "ms"); ("transport.polls", "count");
    ("transport.journal_save_ms", "ms"); ("service.waves", "count");
    ("service.wave_size", "count"); ("service.coalesced_share", "share");
    ("service.retries", "count"); ("service.queue_wait_ms", "ms");
    ("service.unattributed_share", "share");
    ("workloads.generate_ms", "ms"); ("preempt.expand_ms", "ms");
    ("preempt.subs", "count"); ("trace.overhead_pct", "%") ]

(* Mean duration of the spans called [name], scaled by [scale] (e.g.
   1000 for ms), with its sample count. *)
let span_mean spans ~scale name =
  let d = Trace.durations spans ~name in
  (Stats.mean d *. scale, Array.length d)

let ratio num den = if den = 0 then 0. else float_of_int num /. float_of_int den

(* The layer metrics every decomposed pass yields: spans plus the
   counters of {!Layers}. *)
let of_spans spans (c : Layers.counters) =
  let m name (v, n) = (name, (v, n)) in
  let solve_s =
    Array.fold_left ( +. ) 0.
      (Array.append
         (Trace.durations spans ~name:"solver.acs")
         (Trace.durations spans ~name:"solver.wcs"))
  in
  let sim = Trace.durations spans ~name:"sim.simulate" in
  [ m "solver.acs_ms" (span_mean spans ~scale:1e3 "solver.acs");
    m "solver.wcs_ms" (span_mean spans ~scale:1e3 "solver.wcs");
    m "solver.outer_iters" (ratio c.Layers.outer c.Layers.solves, c.Layers.solves);
    m "solver.inner_iters" (ratio c.Layers.inner c.Layers.solves, c.Layers.solves);
    m "solver.ns_per_inner_iter"
      ((if c.Layers.inner = 0 then 0. else solve_s *. 1e9 /. float_of_int c.Layers.inner),
       c.Layers.inner);
    m "solver.minor_words"
      ((if c.Layers.solves = 0 then 0.
        else c.Layers.solver_words /. float_of_int c.Layers.solves),
       c.Layers.solves);
    m "robust.solve_ms" (span_mean spans ~scale:1e3 "robust.solve");
    m "robust.acs_reject_share"
      (ratio c.Layers.acs_rejects c.Layers.acs_attempts, c.Layers.acs_attempts);
    m "robust.acs_reject_validate"
      (float_of_int c.Layers.acs_reject_validate, c.Layers.acs_attempts);
    m "robust.fallback_share" (ratio c.Layers.fallbacks c.Layers.pipelines, c.Layers.pipelines);
    m "validate.check_us" (span_mean spans ~scale:1e6 "validate.check");
    m "sim.simulate_ms" (span_mean spans ~scale:1e3 "sim.simulate");
    m "sim.rounds_per_s"
      ((let s = Array.fold_left ( +. ) 0. sim in
        if s = 0. then 0. else float_of_int c.Layers.sim_rounds /. s),
       c.Layers.sim_calls);
    m "sim.minor_words"
      ((if c.Layers.sim_calls = 0 then 0.
        else c.Layers.sim_words /. float_of_int c.Layers.sim_calls),
       c.Layers.sim_calls);
    m "request.parse_us" (span_mean spans ~scale:1e6 "request.parse");
    m "cache.find_us" (span_mean spans ~scale:1e6 "cache.find");
    m "cache.store_us" (span_mean spans ~scale:1e6 "cache.store");
    m "workloads.generate_ms" (span_mean spans ~scale:1e3 "workloads.generate");
    m "preempt.expand_ms" (span_mean spans ~scale:1e3 "preempt.expand");
    m "preempt.subs" (ratio c.Layers.subs c.Layers.plans, c.Layers.plans) ]

(* Time each unit spent inside the program's layers, by [rid]: the sum
   of its spans' self times, so nested layer spans count once. *)
let layer_time spans =
  let by_rid = Hashtbl.create 64 in
  List.iter
    (fun ((s : Trace.span), self) ->
      Hashtbl.replace by_rid s.Trace.rid
        (self +. Option.value ~default:0. (Hashtbl.find_opt by_rid s.Trace.rid)))
    (Trace.self_times spans);
  fun rid -> Option.value ~default:0. (Hashtbl.find_opt by_rid rid)

(* [(e2e - layers) / e2e], summed over units. *)
let unattributed ~e2e ~layers =
  let total = Array.fold_left ( +. ) 0. e2e in
  if total = 0. then 0.
  else
    let attributed = ref 0. in
    Array.iteri (fun rid _ -> attributed := !attributed +. layers rid) e2e;
    (total -. !attributed) /. total

let overhead_pct ~traced ~untraced =
  let u = Stats.mean untraced in
  if u = 0. then 0. else 100. *. (Stats.mean traced -. u) /. u

(* Complete the list: every name of [all], in order, 0 when absent. *)
let complete measured =
  List.map
    (fun (name, unit_) ->
      let value, samples =
        Option.value ~default:(0., 0) (List.assoc_opt name measured)
      in
      Common.metric ~samples name unit_ value)
    all
