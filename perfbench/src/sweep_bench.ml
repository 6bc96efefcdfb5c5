(* sweep-cells: Fig 6(a) cells — one random task set of n tasks at one
   BCEC/WCEC ratio, generated and measured by [Improvement.measure] at
   the paper's 1000 hyper-periods, with the simulation rounds on 2
   domains. One caller, closed loop: the next cell starts when the
   previous one is done. *)

module Improvement = Lepts_experiments.Improvement
module Random_gen = Lepts_workloads.Random_gen
module Rng = Lepts_prng.Xoshiro256
module Pool = Lepts_par.Pool
module Model = Lepts_power.Model
open Common

let jobs = 2
let rounds = 1000
let setup_reps = 501
let power = Model.ideal ()
let task_counts = [| 2; 4; 6; 8; 10 |]
let ratios = [| 0.1; 0.5; 0.9 |]

type cell = { n : int; ratio : float; gen_seed : int; sim_seed : int }

(* The task sets come from the catalogue of {!Common.catalogue_seed},
   as Fig 6(a) draws them; [--seed] shuffles the order the cells run in
   and draws each cell's simulated workload stream. Per-set improvement
   varies by about 10 percentage points around a mean of about 12 %, so
   cells drawn afresh per run would need a few hundred cells per run to
   hold the energy figure steady. *)

(* Cells per second of [--seconds]: the work of a run is fixed by its
   length, so every run of one length measures the same cells; at the
   benchmark's 40 s that is the whole grid of 15 cells once. *)
let cells_per_s = 0.375

(* Catalogue cell [i]: the grid walked so that every run of five
   consecutive cells covers each task count once and every run of 15
   covers the whole grid. *)
let grid_cell i =
  let nt = Array.length task_counts and nr = Array.length ratios in
  let k = i mod (nt * nr) in
  (task_counts.(k mod nt), ratios.(((k mod nt) + (k / nt)) mod nr))

let cells ~seed ~seconds =
  let count = Int.max 1 (int_of_float (Float.round (seconds *. cells_per_s))) in
  let order = Array.init count Fun.id in
  let rng = Rng.create ~seed in
  for i = count - 1 downto 1 do
    let j = Rng.int rng ~bound:(i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  Array.to_list
    (Array.map
       (fun i ->
         let n, ratio = grid_cell i in
         { n; ratio;
           gen_seed =
             Rng.int (Rng.split_key (Rng.create ~seed:(catalogue_seed ~seed)) ~key:i)
               ~bound:(1 lsl 30);
           sim_seed = Rng.int (Rng.split_key rng ~key:i) ~bound:(1 lsl 30) })
       order)

(* One row of the grid: the ratio [ratios.(seed mod 3)], whose five
   cells (one per task count) a run re-runs at jobs = 1 and a traced run
   traces; three consecutive seeds cover every cell. *)
let row_ratio ~seed =
  let nr = Array.length ratios in
  ratios.(((seed mod nr) + nr) mod nr)

let in_row ~seed c = c.ratio = row_ratio ~seed

let generate c =
  Random_gen.generate
    (Random_gen.default_config ~n_tasks:c.n ~ratio:c.ratio)
    ~power ~rng:(Rng.create ~seed:c.gen_seed)

let measure ~jobs c =
  match generate c with
  | Error e -> Error ("generation failed: " ^ e)
  | Ok task_set -> (
    match Improvement.measure ~rounds ~jobs ~task_set ~power ~sim_seed:c.sim_seed () with
    | Ok r -> Ok r
    | Error e -> Error (Format.asprintf "%a" Lepts_core.Solver.pp_error e))

type done_cell = {
  cell : cell;
  latency : float;  (** seconds *)
  result : (Improvement.t, string) result;
}

(* Closed loop: each cell starts when the previous one is done. A
   traced loop records a span per cell. *)
let loop ?trace cells =
  List.mapi
    (fun rid c ->
      let s = now () in
      let result =
        match trace with
        | None -> measure ~jobs c
        | Some t -> Trace.with_ t ~rid "cell" (fun _ -> measure ~jobs c)
      in
      { cell = c; latency = now () -. s; result })
    cells

let bits x = Int64.bits_of_float x

let same (a : Improvement.t) (b : Improvement.t) =
  bits a.Improvement.wcs_energy = bits b.Improvement.wcs_energy
  && bits a.Improvement.acs_energy = bits b.Improvement.acs_energy
  && bits a.Improvement.improvement_pct = bits b.Improvement.improvement_pct
  && a.Improvement.wcs_misses = b.Improvement.wcs_misses
  && a.Improvement.acs_misses = b.Improvement.acs_misses
  && a.Improvement.sub_instances = b.Improvement.sub_instances

(* Every cell: no deadline miss under either schedule; the cells of
   the seed's row: the result bits of a jobs = 1 run of the same cell. *)
let checks ~seed cells =
  let misses =
    List.filter
      (fun d ->
        match d.result with
        | Ok r -> r.Improvement.wcs_misses <> 0 || r.Improvement.acs_misses <> 0
        | Error _ -> false)
      cells
  in
  (* The jobs = 1 reruns are independent, so two run at once, one per
     core; each is itself sequential. *)
  let row = Array.of_list (List.filter (fun d -> in_row ~seed d.cell) cells) in
  let again, _ =
    Pool.submit (Pool.shared ~jobs) ~n:(Array.length row) ~f:(fun k ->
        measure ~jobs:1 row.(k).cell)
  in
  let differ =
    List.filter
      (fun k ->
        match (row.(k).result, again.(k)) with
        | Ok a, Ok b -> not (same a b)
        | Error _, Error _ -> false
        | _ -> true)
      (List.init (Array.length row) Fun.id)
  in
  [ check "sweep.no_deadline_misses" (misses = [])
      (Printf.sprintf "%d of %d cells missed deadlines" (List.length misses)
         (List.length cells));
    check "sweep.jobs1_identical" (row <> [||] && differ = [])
      (Printf.sprintf "%d of %d cells at ratio %g differ from their jobs = 1 run"
         (List.length differ) (Array.length row) (row_ratio ~seed)) ]

let tally cells =
  let ok = List.length (List.filter (fun d -> Result.is_ok d.result) cells) in
  { Stats.empty_tally with
    attempted = List.length cells; completed = ok;
    failed = List.length cells - ok }

(* [Improvement.measure] one layer call at a time: generate, expand,
   WCS (refined by the literal NLP on small plans), ACS warm-started
   from WCS (refined likewise), then both simulations on [jobs]
   domains with the same workload stream. *)
let refine trace ~rid ~mode ~plan best =
  Trace.with_ trace ~rid "solver.refine" @@ fun _ ->
  if Lepts_preempt.Plan.size plan > 120 then best
  else
    match Lepts_core.Literal_nlp.solve ~mode ~plan ~power () with
    | Error _ -> best
    | Ok (candidate, _) ->
      let energy s = Lepts_core.Static_schedule.predicted_energy s ~mode in
      if energy candidate < energy best && Lepts_core.Validate.is_feasible candidate
      then candidate
      else best

let decompose trace c ~rid cell =
  let module S = Lepts_core.Static_schedule in
  match
    Trace.with_ trace ~rid "workloads.generate" (fun _ -> generate cell)
  with
  | Error _ -> None
  | Ok ts -> (
    let plan = Layers.expand trace c ~rid ts in
    let nlp name f = Layers.nlp trace c ~rid name f in
    match nlp "solver.wcs" (fun () -> Lepts_core.Solver.solve_wcs ~plan ~power ()) with
    | Error _ -> None
    | Ok (wcs, _) -> (
      let wcs = refine trace ~rid ~mode:Lepts_core.Objective.Worst ~plan wcs in
      match
        nlp "solver.acs" (fun () ->
            Lepts_core.Solver.solve_acs
              ~warm_starts:[ (wcs.S.end_times, wcs.S.quotas) ]
              ~plan ~power ())
      with
      | Error _ -> None
      | Ok (acs, _) ->
        let acs = refine trace ~rid ~mode:Lepts_core.Objective.Average ~plan acs in
        let sim s =
          Layers.simulate trace c ~rid ~jobs ~rounds ~seed:cell.sim_seed s
        in
        let sw = sim wcs and sa = sim acs in
        let e r = r.Lepts_sim.Runner.mean_energy in
        Some
          { Improvement.wcs_energy = e sw; acs_energy = e sa;
            improvement_pct = 100. *. (e sw -. e sa) /. e sw;
            wcs_misses = sw.Lepts_sim.Runner.deadline_misses;
            acs_misses = sa.Lepts_sim.Runner.deadline_misses;
            sub_instances = Lepts_preempt.Plan.size plan }))

(* Set-up: the worker pool the simulation rounds run on. *)
let time_set_ups () =
  fst
    (time_set_up ~reps:setup_reps
       ~set_up:(fun () -> (Pool.create ~jobs, ()))
       ~tear_down:Pool.shutdown)

let e2e ~setup cells =
  let lat = Array.of_list (List.map (fun d -> d.latency) cells) in
  let oks = List.filter_map (fun d -> Result.to_option d.result) cells in
  timing_metrics ~setup ~tally:(tally cells)
    [ { completed = List.length oks; elapsed = Array.fold_left ( +. ) 0. lat;
        latencies = lat } ]
  @ [ metric ~samples:(List.length oks) "acs_share" "share"
      (Perlayer.ratio
         (List.length (List.filter (fun r -> r.Improvement.acs_energy < r.Improvement.wcs_energy) oks))
         (List.length oks));
      metric ~samples:(List.length oks) "energy_saving_pct" "%"
        (Stats.mean (Array.of_list (List.map (fun r -> r.Improvement.improvement_pct) oks))) ]

let run ~seed ~seconds ~traced =
  let setup = time_set_ups () in
  (* the simulation rounds run on the process-wide pool *)
  ignore (Pool.shared ~jobs);
  if not traced then begin
    let cells = loop (cells ~seed ~seconds) in
    let peak = peak_mem_mb () in
    { checks = checks ~seed cells; tally = tally cells;
      metrics = e2e ~setup cells @ [ metric ~samples:1 "peak_heap_mb" "MB" peak ] }
  end
  else begin
    (* The seed's row, one cell per task count, whatever the length:
       untraced, then with a span per cell; then the decomposed pass
       over the traced cells. *)
    let row = List.filter (in_row ~seed) (cells ~seed ~seconds:(15. /. cells_per_s)) in
    let untraced = loop row in
    let cells = loop ~trace:(Trace.create ()) row in
    let trace = Trace.create () in
    let c = Layers.counters () in
    let mismatches =
      List.length
        (List.filteri
           (fun rid d ->
             match (d.result, decompose trace c ~rid d.cell) with
             | Ok a, Some b -> not (same a b)
             | Error _, None -> false
             | _ -> true)
           cells)
    in
    let spans = Trace.spans trace in
    let latencies l = Array.of_list (List.map (fun d -> d.latency) l) in
    let lat = latencies cells in
    let measured =
      Perlayer.of_spans spans c
      @ [ ("service.unattributed_share",
            (Perlayer.unattributed ~e2e:lat ~layers:(Perlayer.layer_time spans), Array.length lat));
          ("trace.overhead_pct",
            (Perlayer.overhead_pct ~traced:lat ~untraced:(latencies untraced), Array.length lat)) ]
    in
    { checks =
        checks ~seed cells
        @ [ check "trace.decomposition" (mismatches = 0)
              (Printf.sprintf "%d of %d cells decomposed to different bits"
                 mismatches (List.length cells)) ];
      tally = tally cells; metrics = Perlayer.complete measured }
  end
