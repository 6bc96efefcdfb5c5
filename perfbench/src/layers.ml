(* Traced calls into the program's layers, for the decomposed passes of
   traced runs. Each function performs exactly the public calls the
   service or the experiment harness makes for one unit of work, in the
   same order and with the same arguments, and wraps each call in a
   span. Counters the spans cannot carry (solver iterations, allocation,
   validation rejects) are accumulated in [counters]. *)

module Rng = Lepts_prng.Xoshiro256
module Solver = Lepts_core.Solver
module Robust_solver = Lepts_robust.Robust_solver
module Validate = Lepts_core.Validate
module Static_schedule = Lepts_core.Static_schedule
module Plan = Lepts_preempt.Plan
module Request = Lepts_serve.Request

type counters = {
  mutable solves : int;  (** NLP solves (ACS and WCS) *)
  mutable outer : int;
  mutable inner : int;
  mutable solver_words : float;  (** minor words allocated by solves *)
  mutable sim_calls : int;
  mutable sim_rounds : int;
  mutable sim_words : float;
  mutable pipelines : int;  (** robust pipeline runs *)
  mutable acs_attempts : int;
  mutable acs_rejects : int;  (** ACS stage failed, any reason *)
  mutable acs_reject_validate : int;  (** ACS solved but failed validation *)
  mutable fallbacks : int;  (** pipelines won by a stage below ACS *)
  mutable subs : int;  (** summed plan sizes *)
  mutable plans : int;
}

let counters () =
  { solves = 0; outer = 0; inner = 0; solver_words = 0.; sim_calls = 0;
    sim_rounds = 0; sim_words = 0.; pipelines = 0; acs_attempts = 0;
    acs_rejects = 0; acs_reject_validate = 0; fallbacks = 0; subs = 0;
    plans = 0 }

let minor_words () = Gc.minor_words ()

(* The service's workload construction for a request. *)
let generate trace ~rid ~power (req : Request.t) =
  Trace.with_ trace ~rid "workloads.generate" @@ fun _ ->
  if req.Request.tasks = 0 then
    Ok (Lepts_workloads.Cnc.task_set ~power ~ratio:req.Request.ratio ())
  else
    Lepts_workloads.Random_gen.generate
      (Lepts_workloads.Random_gen.default_config ~n_tasks:req.Request.tasks
         ~ratio:req.Request.ratio)
      ~power ~rng:(Rng.create ~seed:req.Request.seed)

let expand trace c ~rid ts =
  let plan = Trace.with_ trace ~rid "preempt.expand" (fun _ -> Plan.expand ts) in
  c.subs <- c.subs + Plan.size plan;
  c.plans <- c.plans + 1;
  plan

let nlp trace c ~rid ?parent name solve =
  let w0 = minor_words () in
  let r = Trace.with_ trace ?parent ~rid name (fun _ -> solve ()) in
  c.solver_words <- c.solver_words +. (minor_words () -. w0);
  c.solves <- c.solves + 1;
  (match r with
  | Ok (_, (st : Solver.stats)) ->
    c.outer <- c.outer + st.Solver.outer_iterations;
    c.inner <- c.inner + st.Solver.inner_iterations
  | Error _ -> ());
  r

let validate trace ~rid ~parent schedule =
  Trace.with_ trace ~parent ~rid "validate.check" (fun _ ->
      Validate.check schedule)

(* The service's stage budgets: [Robust_solver.default_budget]. *)
let max_outer = Robust_solver.default_budget.Robust_solver.max_outer
let max_inner = Robust_solver.default_budget.Robust_solver.max_inner

(* [Lepts_robust.Robust_solver.solve] with the service's default
   budgets, stage by stage: ACS
   (warm through [resolve_incremental] when a chain seed is given),
   validate, then WCS, validate, then the RM point at v_max. Returns the
   winning stage name and schedule. *)
let robust_solve trace c ~rid ~skip_acs ~prev ~plan ~power =
  c.pipelines <- c.pipelines + 1;
  Trace.with_ trace ~rid "robust.solve" @@ fun parent ->
  let checked stage = function
    | Error _ -> None
    | Ok (schedule, _) -> (
      match validate trace ~rid ~parent schedule with
      | Ok () -> Some (stage, schedule)
      | Error _ ->
        if stage = "acs" then
          c.acs_reject_validate <- c.acs_reject_validate + 1;
        None)
  in
  let acs =
    if skip_acs then None
    else begin
      c.acs_attempts <- c.acs_attempts + 1;
      let r =
        checked "acs"
          (nlp trace c ~rid ~parent "solver.acs" (fun () ->
               match prev with
               | Some prev ->
                 Solver.resolve_incremental ~max_outer ~max_inner
                   ~mode:Lepts_core.Objective.Average ~prev ~plan ~power ()
               | None -> Solver.solve_acs ~max_outer ~max_inner ~plan ~power ()))
      in
      if Option.is_none r then c.acs_rejects <- c.acs_rejects + 1;
      r
    end
  in
  let result =
    match acs with
    | Some _ -> acs
    | None -> (
      match
        checked "wcs"
          (nlp trace c ~rid ~parent "solver.wcs" (fun () ->
               Solver.solve_wcs ~max_outer ~max_inner ~plan ~power ()))
      with
      | Some _ as wcs -> wcs
      | None -> (
        match
          Trace.with_ trace ~parent ~rid "solver.rm" (fun _ ->
              Solver.initial_point ~plan ~power)
        with
        | Error _ -> None
        | Ok (e0, q0) ->
          checked "rm-vmax"
            (Ok (Static_schedule.create ~plan ~power ~end_times:e0 ~quotas:q0, ()))))
  in
  (match result with
  | Some (stage, _) when stage <> "acs" -> c.fallbacks <- c.fallbacks + 1
  | _ -> ());
  result

let simulate trace c ~rid ?(jobs = 1) ~rounds ~seed schedule =
  let w0 = minor_words () in
  let summary =
    Trace.with_ trace ~rid "sim.simulate" (fun _ ->
        Lepts_sim.Runner.simulate ~rounds ~jobs ~schedule
          ~policy:Lepts_dvs.Policy.Greedy ~rng:(Rng.create ~seed) ())
  in
  c.sim_words <- c.sim_words +. (minor_words () -. w0);
  c.sim_calls <- c.sim_calls + 1;
  c.sim_rounds <- c.sim_rounds + rounds;
  summary
