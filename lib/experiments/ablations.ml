module Plan = Lepts_preempt.Plan
module Solver = Lepts_core.Solver
module Literal_nlp = Lepts_core.Literal_nlp
module Static_schedule = Lepts_core.Static_schedule
module Objective = Lepts_core.Objective
module Yds = Lepts_core.Yds
module Policy = Lepts_dvs.Policy
module Runner = Lepts_sim.Runner
module Rng = Lepts_prng.Xoshiro256
module Table = Lepts_util.Table

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* The ACS arm shared by the ablations: the cold multi-start, or — with
   [warm_start] — one {!Solver.resolve_incremental} continuation seeded
   from a fresh WCS solve (the same reduction {!objectives} uses). *)
let solve_acs_arm ~jobs ~warm_start ~plan ~power () =
  if warm_start then
    match Solver.solve_wcs ~jobs ~plan ~power () with
    | Error _ as err -> err
    | Ok (wcs, _) ->
      Solver.resolve_incremental ~jobs ~mode:Objective.Average ~prev:wcs ~plan
        ~power ()
  else Solver.solve_acs ~jobs ~plan ~power ()

let formulations ?(jobs = 1) ?(warm_start = false) ~task_set ~power () =
  let plan = Plan.expand task_set in
  let slack, slack_t =
    time (fun () -> solve_acs_arm ~jobs ~warm_start ~plan ~power ())
  in
  match slack with
  | Error _ as err -> err
  | Ok (_, slack_stats) -> (
    let literal, literal_t =
      time (fun () -> Literal_nlp.solve ~mode:Objective.Average ~plan ~power ())
    in
    match literal with
    | Error _ as err -> err
    | Ok (_, literal_stats) ->
      let table =
        Table.create ~header:[ "formulation"; "avg energy"; "violation"; "time (s)" ]
      in
      Table.add_row table
        [ "slack (production)";
          Table.float_cell slack_stats.Solver.objective;
          Printf.sprintf "%.1e" slack_stats.Solver.max_violation;
          Table.float_cell slack_t ];
      Table.add_row table
        [ "literal (paper eqns)";
          Table.float_cell literal_stats.Solver.objective;
          Printf.sprintf "%.1e" literal_stats.Solver.max_violation;
          Table.float_cell literal_t ];
      Ok table)

let simulate ?(jobs = 1) ~rounds ~schedule ~policy ~seed () =
  Runner.simulate ~rounds ~jobs ~schedule ~policy ~rng:(Rng.create ~seed) ()

let objectives ?(rounds = 500) ?(jobs = 1) ?(warm_start = false) ~task_set
    ~power ~seed () =
  let plan = Plan.expand task_set in
  match Solver.solve_wcs ~jobs ~plan ~power () with
  | Error _ as err -> err
  | Ok (wcs, _) -> (
    let warm = [ (wcs.Static_schedule.end_times, wcs.Static_schedule.quotas) ] in
    let acs_result =
      if warm_start then
        Solver.resolve_incremental ~jobs ~mode:Lepts_core.Objective.Average
          ~prev:wcs ~plan ~power ()
      else Solver.solve_acs ~jobs ~warm_starts:warm ~plan ~power ()
    in
    match acs_result with
    | Error _ as err -> err
    | Ok (acs, _) -> (
      match
        Solver.solve_stochastic ~jobs ~warm_starts:warm ~scenarios:12 ~seed ~plan
          ~power ()
      with
      | Error _ as err -> err
      | Ok (stochastic, _) ->
        let table =
          Table.create ~header:[ "objective"; "sim mean energy"; "misses" ]
        in
        List.iter
          (fun (name, schedule) ->
            let s =
              simulate ~jobs ~rounds ~schedule ~policy:Policy.Greedy ~seed:(seed + 1) ()
            in
            Table.add_row table
              [ name; Table.float_cell s.Runner.mean_energy;
                string_of_int s.Runner.deadline_misses ])
          [ ("WCS (worst-case point)", wcs); ("ACS (ACEC point)", acs);
            ("stochastic (12 scenarios)", stochastic) ];
        Ok table))

let quantization ?(rounds = 500) ?(steps = [ 4; 8; 16 ]) ?(jobs = 1)
    ?(warm_start = false) ~task_set ~power ~seed () =
  let plan = Plan.expand task_set in
  match solve_acs_arm ~jobs ~warm_start ~plan ~power () with
  | Error _ as err -> err
  | Ok (acs, _) ->
    let table = Table.create ~header:[ "voltage levels"; "sim mean energy"; "overhead" ] in
    let continuous = simulate ~jobs ~rounds ~schedule:acs ~policy:Policy.Greedy ~seed () in
    Table.add_row table
      [ "continuous"; Table.float_cell continuous.Runner.mean_energy; "-" ];
    List.iter
      (fun n ->
        let levels =
          Lepts_power.Levels.of_range ~v_min:power.Lepts_power.Model.v_min
            ~v_max:power.Lepts_power.Model.v_max ~steps:n
        in
        let s =
          simulate ~jobs ~rounds ~schedule:acs ~policy:(Policy.Greedy_quantized levels)
            ~seed ()
        in
        Table.add_row table
          [ string_of_int n;
            Table.float_cell s.Runner.mean_energy;
            Table.percent_cell
              (100. *. (s.Runner.mean_energy -. continuous.Runner.mean_energy)
               /. continuous.Runner.mean_energy) ])
      steps;
    Ok table

let structures ?(jobs = 1) ?(warm_start = false) ~task_set ~power () =
  let preemptive = Plan.expand task_set in
  match solve_acs_arm ~jobs ~warm_start ~plan:preemptive ~power () with
  | Error _ as err -> err
  | Ok (p_acs, p_stats) ->
    let table =
      Table.create ~header:[ "structure"; "sub-instances"; "avg energy" ]
    in
    Table.add_row table
      [ "preemptive (RM segments)";
        string_of_int (Plan.size preemptive);
        Table.float_cell p_stats.Solver.objective ];
    (match
       solve_acs_arm ~jobs ~warm_start
         ~plan:(Plan.expand_nonpreemptive task_set) ~power ()
     with
    | Error _ ->
      Table.add_row table [ "non-preemptive"; "-"; "unschedulable" ]
    | Ok (_, np_stats) ->
      Table.add_row table
        [ "non-preemptive";
          string_of_int (Plan.size (Plan.expand_nonpreemptive task_set));
          Table.float_cell np_stats.Solver.objective ]);
    Table.add_row table
      [ "YDS bound (EDF, worst-case)"; "-";
        Table.float_cell (Yds.lower_bound ~power task_set) ];
    ignore p_acs;
    Ok table
