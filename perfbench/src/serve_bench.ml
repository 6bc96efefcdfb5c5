(* The serve workloads: a live Unix-domain socket ingress served by
   [Service.run_source] on 2 worker domains, driven by 2 closed-loop
   clients that share one client domain and one connection. Completion
   is observed through the service's public [after_wave] hook: waves
   fold in arrival order, and a wave takes the whole backlog (at most 2
   bursts of 4 requests, within the wave size of 8), so "the first
   [p_processed] arrivals are done" maps folds onto requests exactly. *)

module Service = Lepts_serve.Service
module Transport = Lepts_serve.Transport
module Cache = Lepts_serve.Cache
module Request = Lepts_serve.Request
module Breaker = Lepts_serve.Breaker
module Checkpoint = Lepts_robust.Checkpoint
module Rng = Lepts_prng.Xoshiro256
module Pool = Lepts_par.Pool
module Model = Lepts_power.Model
open Common

let jobs = 2
let clients = 2
let snapshot_every = 8 (* the daemon's default cadence, in waves *)
let setup_reps = 501
let idle_exit_ms = 50
let config = { Service.default_config with Service.jobs }
let power = Model.ideal ()

(* The daemon's cache fingerprint: the power model's voltage rails. *)
let fingerprint =
  Checkpoint.fingerprint
    ~parts:
      [ "lepts-serve-cache"; Checkpoint.float_field power.Model.v_min;
        Checkpoint.float_field power.Model.v_max ]

(* --- request generation --------------------------------------------- *)

(* Both serve workloads draw their random task sets from the fixed
   catalogue of {!Common.catalogue_seed} and submit them in a fixed
   order, so every run serves the same requests in the same sequence.
   Task-set draws differ so much in cost (2 to 640 sub-instances, 25 ms
   to 1.4 s a solve) that a per-run draw swamped every end-to-end
   figure with sampling noise, and the circuit breaker makes outcomes
   depend on order: shuffling the same requests moved serve-cold's ACS
   share between 0.53 and 0.82. [--seed] draws the CNC requests' seeds,
   which only steer their simulated workload streams; the held-out seed
   also draws its own catalogue. *)

(* Units of work per second of [--seconds]: the work of a run is fixed
   by its length, never by how fast it goes, so every run of one length
   measures the same inputs. At the benchmark's 40 s that is 200 cold
   requests and 10000 warm bursts. *)
let cold_requests_per_s = 5.
let warm_bursts_per_s = 250.

(* serve-warm's work is served by this many daemon lifetimes, each
   restarted warm from the prepared snapshot, and its rates and
   latencies are the median of the lifetimes' figures. Every periodic
   snapshot rewrites the whole arrival journal, so one long lifetime
   spent most of its time rewriting an ever longer journal and its
   latency tail was the size of the last few snapshots. *)
let warm_lifetimes = 5

let keyed ~seed ~dim i = Rng.split_key (Rng.create ~seed) ~key:((dim * 10_000_000) + i)

(* Request seeds stay below the wire format's integer bound (1e9).
   CNC requests draw theirs from the run's seed, random task sets from
   the catalogue's. *)
let draw_seed ~seed ~tasks ~dim i =
  let seed = if tasks = 0 then seed else catalogue_seed ~seed in
  Rng.int (keyed ~seed ~dim i) ~bound:1_000_000_000

let request ~tasks ~ratio ~seed ~rounds =
  { Request.id = ""; tasks; ratio; seed; rounds; budget_ms = None;
    acs_max_outer = None }

(* A generator hands each client its next burst; [[]] once the run's
   work is exhausted. [other] is the other client's in-flight burst. *)
type generator = other:Request.t list -> Request.t list

let of_bursts bursts : generator =
  let next = ref 0 in
  fun ~other:_ ->
    if !next >= Array.length bursts then []
    else begin
      incr next;
      bursts.(!next - 1)
    end

(* serve-cold: CNC (tasks 0) and random sets of 2..8 tasks, BCEC/WCEC
   0.1 / 0.5 / 0.9, 0 or 100 simulated rounds, one request per burst.
   Every request is a distinct task set (CNC requests differ in their
   seed), so the cache never hits. The catalogue comes in pairs of one
   class (size, ratio, rounds), and the two clients always submit a
   pair together. *)
let cold_sizes = [| 0; 2; 3; 4; 5; 6; 7; 8 |]
let ratios = [| 0.1; 0.5; 0.9 |]

let cold_request ~seed i =
  let k = Array.length cold_sizes and j = i / clients in
  let tasks = cold_sizes.(j mod k) in
  request ~tasks
    ~ratio:ratios.(j / k mod 3)
    ~seed:(draw_seed ~seed ~tasks ~dim:1 i)
    ~rounds:[| 0; 100 |].(j / k mod 2)

let cold_generator ~seed ~seconds =
  let n = clients * Int.max 1 (int_of_float (Float.round (seconds *. cold_requests_per_s)) / clients) in
  of_bursts (Array.init n (fun i -> [ cold_request ~seed i ]))

(* serve-warm: task-set families (content equal up to the ratio), each
   prepared at the three cached ratios 0.1 / 0.5 / 0.9; the ratios 0.3
   and 0.7 are new to the cache and first get solved warm from a cached
   sibling. *)
let warm_sizes = [| 0; 2; 3; 4; 5; 6 |]
let family ~seed f =
  let tasks = warm_sizes.(f) in
  request ~tasks ~ratio:0.
    ~seed:(draw_seed ~seed ~tasks ~dim:2 f)
    ~rounds:(if f mod 2 = 0 then 100 else 0)

let prep_requests ~seed =
  List.concat_map
    (fun f ->
      let fam = family ~seed f in
      Array.to_list (Array.map (fun ratio -> { fam with Request.ratio }) ratios))
    (List.init (Array.length warm_sizes) Fun.id)

(* The ratio subsets a burst asks for. A new ratio always comes with
   the cached sibling just below it, so its first solve is a warm
   continuation from the same seed schedule whatever the burst order. *)
let burst_ratios =
  [| [ 0.1 ]; [ 0.5 ]; [ 0.9 ]; [ 0.1; 0.5 ]; [ 0.5; 0.9 ]; [ 0.1; 0.5; 0.9 ];
     [ 0.1; 0.3 ]; [ 0.5; 0.7 ]; [ 0.1; 0.3; 0.5; 0.7 ] |]

(* Burst shape [i]: a family and a ratio subset. Shapes cycle through
   every combination, so a run's multiset of shapes depends only on its
   length. *)
let warm_shape ~seed i =
  let nf = Array.length warm_sizes in
  let fam = family ~seed (i mod nf) in
  List.map
    (fun ratio -> { fam with Request.ratio })
    burst_ratios.(i / nf mod Array.length burst_ratios)

(* Every fourth burst repeats the other client's in-flight burst when
   there is one: both go out in one write, so they land in one wave and
   coalesce. *)
let warm_generator ~seed ~seconds : generator =
  let n = Int.max 2 (int_of_float (Float.round (seconds *. warm_bursts_per_s))) in
  let next = ref 0 and issued = ref 0 in
  fun ~other ->
    incr issued;
    if !issued mod 4 = 0 && other <> [] then other
    else if !next >= n then []
    else begin
      incr next;
      warm_shape ~seed (!next - 1)
    end

(* --- set-up -------------------------------------------------------------- *)

type served = {
  source : Transport.source;
  cache : Cache.t;
  journal : Transport.Journal.t;
}

(* Everything between start and accepting traffic, after the worker
   pool: the socket bind, the cache (loaded from the snapshot on a warm
   start) and the arrival journal. Returns the load time separately. *)
let set_up ~sock ~snapshot =
  let source =
    match Transport.socket ~idle_exit_ms ~path:sock () with
    | Ok s -> s
    | Error e -> failwith ("socket bind failed: " ^ e)
  in
  let t_load = now () in
  let cache =
    match snapshot with
    | None -> Cache.create ~fingerprint ()
    | Some path -> (
      match Cache.load ~path ~fingerprint () with
      | Ok c -> c
      | Error e -> failwith ("cache snapshot refused: " ^ e))
  in
  let load_s = now () -. t_load in
  ({ source; cache; journal = Transport.Journal.create () }, load_s)

(* A whole service start, timed [setup_reps] times: the 2-worker pool
   and then {!set_up}, torn down after each. Returns the set-up times
   and the cache load times. *)
let time_set_ups ~dir ~snapshot =
  time_set_up ~reps:setup_reps
    ~set_up:(fun () ->
      let pool = Pool.create ~jobs in
      let served, load_s = set_up ~sock:(Filename.concat dir "setup.sock") ~snapshot in
      ((pool, served), load_s))
    ~tear_down:(fun (pool, served) ->
      Transport.close served.source;
      Pool.shutdown pool)

(* --- the live run -------------------------------------------------------- *)

type live = {
  report : Service.report;
  sent_ids : string array;  (** in send order *)
  lines : string array;  (** by arrival position, as the report lists them *)
  reqs : Request.t array;
  sent_at : float array;
  done_at : float array;
  t0 : float;
  folds : (float * int) array;  (** (after_wave time, processed so far) *)
  solve_start : (string, float) Hashtbl.t;  (** first [before_solve] *)
  cache : Cache.t;
  cache_saves : float list;
  journal_saves : float list;
  batches : int;
  save_spans : (string * float * float) list;
}

type sync = {
  m : Mutex.t;
  mutable events : (float * int) list;  (** newest first *)
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
}

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then
      go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

(* The client domain: [clients] closed-loop clients; a client sends its
   next burst only when every request of its previous one has folded.
   The clients share one connection, like callers behind a front-end
   proxy, and bursts that are due together go out in one write: with a
   connection each, whether two simultaneous bursts reach one wave or
   two would be a race between two sockets, and that race alone moved
   throughput by a quarter between runs of the same inputs. *)
let client_loop ~sock ~(next : generator) ~sync =
  let t0 = now () in
  let exhausted = ref false in
  let sent = ref [] (* (req, line, at), newest first *) in
  let n_sent = ref 0 and n_done = ref 0 in
  let client_of = Hashtbl.create 256 in
  let outstanding = Array.make clients 0 in
  let inflight = Array.make clients [] in
  let last_progress = ref t0 in
  let buf = Bytes.create 256 in
  let rec loop () =
    let due = ref [] in
    for c = 0 to clients - 1 do
      if outstanding.(c) = 0 && not !exhausted then begin
        let reqs = next ~other:inflight.((c + 1) mod clients) in
        if reqs = [] then exhausted := true;
        let reqs =
          List.map
            (fun r ->
              incr n_sent;
              Hashtbl.replace client_of !n_sent c;
              { r with Request.id = Printf.sprintf "r%d" !n_sent })
            reqs
        in
        due := !due @ reqs;
        outstanding.(c) <- List.length reqs;
        inflight.(c) <- List.map (fun r -> { r with Request.id = "" }) reqs
      end
    done;
    if !due <> [] then begin
      let lines = List.map Request.to_json !due in
      let at = now () in
      List.iter2 (fun r l -> sent := (r, l, at) :: !sent) !due lines;
      write_all sock (String.concat "" (List.map (fun l -> l ^ "\n") lines))
    end;
    if !n_done < !n_sent then begin
      (match Unix.select [ sync.wake_r ] [] [] 5. with
      | [], _, _ ->
        if now () -. !last_progress > 60. then
          failwith "no request completed for 60 s"
      | _ -> ignore (Unix.read sync.wake_r buf 0 (Bytes.length buf)));
      Mutex.lock sync.m;
      let events = List.rev sync.events in
      sync.events <- [];
      Mutex.unlock sync.m;
      List.iter
        (fun (t, processed) ->
          while !n_done < processed do
            incr n_done;
            last_progress := t;
            let c = Hashtbl.find client_of !n_done in
            outstanding.(c) <- outstanding.(c) - 1;
            if outstanding.(c) = 0 then inflight.(c) <- []
          done)
        events;
      loop ()
    end
  in
  (* Closing the connection lets the ingress go idle and close. *)
  Fun.protect ~finally:(fun () -> Unix.close sock) loop;
  (t0, Array.of_list (List.rev !sent))

let live ~dir ~(served : served) ~traced ~next =
  let sock_path = Filename.concat dir "serve.sock" in
  let live_cache = Filename.concat dir "live.cache" in
  let journal_path = Filename.concat dir "arrivals.journal" in
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_w;
  let sync = { m = Mutex.create (); events = []; wake_r; wake_w } in
  let folds = ref [] in
  let cache_saves = ref [] and journal_saves = ref [] in
  let save_spans = ref [] in
  let timed name acc f =
    let t0 = now () in
    f ();
    let t1 = now () in
    acc := (t1 -. t0) :: !acc;
    if traced then save_spans := (name, t0, t1) :: !save_spans
  in
  let snapshot () =
    timed "cache.save" cache_saves (fun () -> Cache.save served.cache ~path:live_cache);
    timed "transport.journal_save" journal_saves (fun () ->
        Transport.Journal.save served.journal ~path:journal_path)
  in
  let after_wave (p : Service.progress) =
    let t = now () in
    folds := (t, p.Service.p_processed) :: !folds;
    Mutex.lock sync.m;
    sync.events <- (t, p.Service.p_processed) :: sync.events;
    Mutex.unlock sync.m;
    (try ignore (Unix.write_substring wake_w "w" 0 1)
     with Unix.Unix_error _ -> ());
    if p.Service.p_wave mod snapshot_every = 0 then snapshot ()
  in
  let solve_start = Hashtbl.create 64 in
  let solve_lock = Mutex.create () in
  let before_solve ~attempt (req : Request.t) =
    if attempt = 1 then begin
      let t = now () in
      Mutex.lock solve_lock;
      Hashtbl.replace solve_start req.Request.id t;
      Mutex.unlock solve_lock
    end
  in
  (* Connect before serving: the first poll accepts the connection. *)
  let sock = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect sock (Unix.ADDR_UNIX sock_path);
  let client =
    Domain.spawn (fun () -> client_loop ~sock ~next ~sync)
  in
  let report =
    Service.run_source ~config ~power ~cache:served.cache
      ~journal:served.journal
      ?before_solve:(if traced then Some before_solve else None)
      ~after_wave ~source:served.source ()
  in
  let t0, sent = Domain.join client in
  snapshot ();
  Transport.close served.source;
  Unix.close wake_r;
  Unix.close wake_w;
  (* Exact completion times, after the fact: the report lists requests
     in arrival order, and arrival [p] (from 1) was folded by the first
     wave whose fold count reached [p]. (The clients' live bookkeeping
     assumed send order, which can differ within one poll.) *)
  let folds = Array.of_list (List.rev !folds) in
  let by_id = Hashtbl.create 256 in
  Array.iter (fun ((r : Request.t), l, at) -> Hashtbl.replace by_id r.Request.id (r, l, at)) sent;
  let arrived =
    Array.of_list
      (List.filter_map
         (fun (o : Service.outcome) -> Hashtbl.find_opt by_id o.Service.id)
         report.Service.outcomes)
  in
  let done_at =
    Array.init (Array.length arrived) (fun k ->
        match Array.find_opt (fun (_, p) -> p >= k + 1) folds with
        | Some (t, _) -> t
        | None -> Float.nan)
  in
  { report;
    sent_ids = Array.map (fun ((r : Request.t), _, _) -> r.Request.id) sent;
    lines = Array.map (fun (_, l, _) -> l) arrived;
    reqs = Array.map (fun (r, _, _) -> r) arrived;
    sent_at = Array.map (fun (_, _, at) -> at) arrived;
    done_at; t0; folds;
    solve_start; cache = served.cache; cache_saves = !cache_saves;
    journal_saves = !journal_saves;
    batches = Transport.Journal.batches served.journal;
    save_spans = !save_spans }

(* --- output checks ------------------------------------------------------- *)

let report_string ~dir report =
  let path = Filename.concat dir "report.tmp" in
  let oc = open_out_bin path in
  Service.print_report ~oc report;
  close_out oc;
  let s = read_file path in
  Sys.remove path;
  s

let tally_of lives =
  List.fold_left
    (fun (t : Stats.tally) (l : live) ->
      List.fold_left
        (fun (t : Stats.tally) (o : Service.outcome) ->
          match o.Service.status with
          | Service.Done _ -> { t with completed = t.completed + 1 }
          | Service.Failed _ -> { t with failed = t.failed + 1 }
          | Service.Rejected _ -> { t with rejected = t.rejected + 1 }
          | Service.Shed -> { t with shed = t.shed + 1 }
          | Service.Expired -> { t with expired = t.expired + 1 }
          | Service.Drained -> { t with drained = t.drained + 1 })
        { t with attempted = t.attempted + Array.length l.sent_ids }
        l.report.Service.outcomes)
    Stats.empty_tally lives

(* Every attempted request appears in the report exactly once, under
   its own id, and was seen to complete. *)
let accounting_check (l : live) =
  let ids = List.map (fun (o : Service.outcome) -> o.Service.id) l.report.Service.outcomes in
  let sent = Array.to_list l.sent_ids in
  let t = tally_of [ l ] in
  check "serve.accounting"
    (List.sort compare ids = List.sort compare sent
    && Stats.accounted t
    && Array.for_all Float.is_finite l.done_at)
    (Printf.sprintf "%d sent, %d in report, %d completed" (List.length sent)
       (List.length ids) t.Stats.completed)

(* Replaying the live run's arrival journal offline at jobs = 1, from
   the same starting cache, must reproduce the report byte for byte. *)
let replay_check ~dir ~snapshot (l : live) =
  let journal_path = Filename.concat dir "arrivals.journal" in
  let live_report = report_string ~dir l.report in
  match Transport.replay ~path:journal_path with
  | Error e -> check "serve.replay" false ("journal unreadable: " ^ e)
  | Ok source ->
    let cache =
      match snapshot with
      | None -> Cache.create ~fingerprint ()
      | Some path -> (
        match Cache.load ~path ~fingerprint () with
        | Ok c -> c
        | Error e -> failwith ("cache snapshot refused on replay: " ^ e))
    in
    let replayed =
      Service.run_source ~config:{ config with Service.jobs = 1 } ~power ~cache
        ~source ()
    in
    Transport.close source;
    let replayed = report_string ~dir replayed in
    check "serve.replay" (String.equal live_report replayed)
      (Printf.sprintf "%d-byte report, replay %s" (String.length live_report)
         (if String.equal live_report replayed then "identical" else "differs"))

(* --- the decomposed pass ------------------------------------------------- *)

type slot_state = Hit of Cache.entry | Solve of bool

(* Re-serve the traced run's requests wave by wave, as the service
   planned them (routes from the report, waves from the fold events),
   one layer call at a time on this domain. Returns, per arrival
   position, the winning stage it reproduced (or [None]). *)
let decompose trace c ~snapshot (l : live) =
  let n = Array.length l.reqs in
  let shadow =
    match snapshot with
    | None -> Cache.create ~fingerprint ()
    | Some path -> Result.get_ok (Cache.load ~path ~fingerprint ())
  in
  let outcomes = Array.of_list l.report.Service.outcomes in
  let stage_of = Array.make n None in
  let wave_no = ref 0 in
  let lo = ref 0 in
  Array.iter
    (fun (_, processed) ->
      incr wave_no;
      let slots = Array.init (processed - !lo) (fun k -> !lo + k) in
      lo := processed;
      let w = Array.length slots in
      let req k = l.reqs.(slots.(k)) in
      let states =
        Array.map
          (fun pos ->
            let rid = pos in
            let req =
              Trace.with_ trace ~rid "request.parse" (fun _ ->
                  Request.of_json l.lines.(pos))
              |> Result.get_ok
            in
            if not outcomes.(pos).Service.routed_acs then Solve false
            else
              match
                Trace.with_ trace ~rid "cache.find" (fun _ ->
                    Cache.find ~wave:!wave_no shadow ~key:(Cache.key req))
              with
              | `Hit e -> Hit e
              | `Stale _ | `Miss -> Solve true)
          slots
      in
      let keys = Array.init w (fun k -> Cache.key (req k)) in
      let leader = Array.init w Fun.id in
      let seen = Hashtbl.create 16 in
      for k = 0 to w - 1 do
        match states.(k) with
        | Solve route -> (
          match Hashtbl.find_opt seen (keys.(k), route) with
          | Some ld -> leader.(k) <- ld
          | None -> Hashtbl.add seen (keys.(k), route) k)
        | Hit _ -> ()
      done;
      (* warm chains: ACS-routed leaders and cached members with a
         stored schedule, grouped by family, in ratio order *)
      let fam = Hashtbl.create 16 in
      for k = w - 1 downto 0 do
        let joins =
          match states.(k) with
          | Hit e -> e.Cache.schedule <> None
          | Solve true -> leader.(k) = k
          | Solve false -> false
        in
        if joins then begin
          let fk = Cache.family_key (req k) in
          Hashtbl.replace fam fk (k :: Option.value ~default:[] (Hashtbl.find_opt fam fk))
        end
      done;
      let chained = Array.make w false in
      let units = ref [] in
      Hashtbl.iter
        (fun _ members ->
          let solves = List.filter (fun k -> match states.(k) with Solve _ -> true | Hit _ -> false) members in
          if solves <> [] && List.length members >= 2 then begin
            let ordered =
              List.sort
                (fun a b ->
                  match compare (req a).Request.ratio (req b).Request.ratio with
                  | 0 -> compare a b
                  | x -> x)
                members
            in
            List.iter (fun k -> chained.(k) <- true) ordered;
            units := ordered :: !units
          end)
        fam;
      for k = 0 to w - 1 do
        match states.(k) with
        | Solve _ when leader.(k) = k && not chained.(k) -> units := [ k ] :: !units
        | _ -> ()
      done;
      let units = List.sort compare !units in
      let results = Array.make w None in
      List.iter
        (fun links ->
          let prev = ref None in
          List.iter
            (fun k ->
              let rid = slots.(k) in
              let r = req k in
              match states.(k) with
              | Hit e ->
                (* a cached sibling seeds the chain *)
                prev :=
                  (match Layers.generate trace ~rid ~power r with
                  | Error _ -> None
                  | Ok ts -> (
                    let plan = Layers.expand trace c ~rid ts in
                    let ets, qs = Option.get e.Cache.schedule in
                    try
                      Some
                        (Lepts_core.Static_schedule.create ~plan ~power
                           ~end_times:ets ~quotas:qs)
                    with Invalid_argument _ -> None))
              | Solve route ->
                let won =
                  match Layers.generate trace ~rid ~power r with
                  | Error _ -> None
                  | Ok ts -> (
                    let plan = Layers.expand trace c ~rid ts in
                    match
                      Layers.robust_solve trace c ~rid ~skip_acs:(not route)
                        ~prev:(if route then !prev else None) ~plan ~power
                    with
                    | None -> None
                    | Some (stage, schedule) ->
                      if r.Request.rounds > 0 then
                        ignore
                          (Layers.simulate trace c ~rid ~rounds:r.Request.rounds
                             ~seed:r.Request.seed schedule);
                      Some (stage, schedule))
                in
                prev :=
                  (match won with Some ("acs", s) -> Some s | _ -> None);
                results.(k) <- won)
            links)
        units;
      (* fold: fresh leaders' results go back to the cache *)
      for k = 0 to w - 1 do
        match states.(k) with
        | Hit e -> stage_of.(slots.(k)) <- Some e.Cache.stage
        | Solve _ ->
          let ld = leader.(k) in
          stage_of.(slots.(k)) <- Option.map fst results.(ld);
          if ld = k then
            match (outcomes.(slots.(k)).Service.status, results.(k)) with
            | Service.Done { stage; mean_energy }, Some (_, s) ->
              Trace.with_ trace ~rid:slots.(k) "cache.store" (fun _ ->
                  Cache.store ~wave:!wave_no shadow ~key:keys.(k)
                    { Cache.stage; mean_energy; attempts = 1; crashes = 0;
                      provenance =
                        (if stage = "acs" then Cache.Authoritative
                         else Cache.Fallback);
                      schedule =
                        Some
                          ( s.Lepts_core.Static_schedule.end_times,
                            s.Lepts_core.Static_schedule.quotas ) })
            | _ -> ()
      done)
    l.folds;
  stage_of

(* --- the workload -------------------------------------------------------- *)

(* serve-warm's starting snapshot: an untimed pass of the code under
   test serves every family at the cached ratios and saves the cache. *)
let prepare ~dir ~seed =
  let path = Filename.concat dir "prep.cache" in
  let cache = Cache.create ~fingerprint () in
  let lines =
    List.mapi
      (fun i r -> Request.to_json { r with Request.id = Printf.sprintf "p%d" i })
      (prep_requests ~seed)
  in
  ignore (Service.run ~config ~power ~cache ~lines ());
  Cache.save cache ~path;
  path

let latencies (l : live) = Array.mapi (fun k s -> l.done_at.(k) -. s) l.sent_at

(* The paper's figure on served schedules: for every request with
   simulated rounds, the energy its served schedule used against the
   WCS schedule for the same task set, simulated over the same rounds
   and workload stream (the service's own WCS stage settings). Runs
   after the measured window. Requests the service answered with its
   WCS stage double as an output check: their reported energy must
   equal the recomputed baseline bit for bit. Returns the mean saving,
   its sample count and the check. *)
let energy_saving lives =
  let baseline (r : Request.t) =
    let trace = Trace.create () and c = Layers.counters () in
    match Layers.generate trace ~rid:0 ~power r with
    | Error _ -> None
    | Ok ts -> (
      let plan = Layers.expand trace c ~rid:0 ts in
      match
        Lepts_core.Solver.solve_wcs ~max_outer:Layers.max_outer
          ~max_inner:Layers.max_inner ~plan ~power ()
      with
      | Error _ -> None
      | Ok (wcs, _) ->
        Some
          (Layers.simulate trace c ~rid:0 ~rounds:r.Request.rounds
             ~seed:r.Request.seed wcs).Lepts_sim.Runner.mean_energy)
  in
  (* one baseline per distinct simulated task set, on the worker pool *)
  let distinct = Hashtbl.create 64 in
  List.iter
    (fun (l : live) ->
      Array.iter
        (fun (r : Request.t) ->
          if r.Request.rounds > 0 then Hashtbl.replace distinct (Cache.key r) r)
        l.reqs)
    lives;
  let keyed = Array.of_seq (Hashtbl.to_seq distinct) in
  let values, _ =
    Pool.submit (Pool.shared ~jobs) ~n:(Array.length keyed) ~f:(fun i ->
        baseline (snd keyed.(i)))
  in
  let memo = Hashtbl.create 64 in
  Array.iteri (fun i (key, _) -> Hashtbl.replace memo key values.(i)) keyed;
  let baseline r = Option.join (Hashtbl.find_opt memo (Cache.key r)) in
  let savings = ref [] and wcs_served = ref 0 and wcs_differ = ref 0 in
  let served (l : live) = List.combine (Array.to_list l.reqs) l.report.Service.outcomes in
  List.iter
    (fun (r, (o : Service.outcome)) ->
      match o.Service.status with
      | Service.Done { stage; mean_energy = Some served } -> (
        match baseline r with
        | None -> ()
        | Some base ->
          savings := (100. *. (base -. served) /. base) :: !savings;
          if stage = "wcs" then begin
            incr wcs_served;
            if Int64.bits_of_float base <> Int64.bits_of_float served then
              incr wcs_differ
          end)
      | _ -> ())
    (List.concat_map served lives);
  ( Stats.mean (Array.of_list !savings),
    List.length !savings,
    check "serve.wcs_energy" (!wcs_differ = 0)
      (Printf.sprintf "%d of %d WCS-served energies differ from a recomputation"
         !wcs_differ !wcs_served) )

(* The end-to-end metrics of one or more daemon lifetimes, each a
   measured window. *)
let e2e_metrics ~setup lives =
  let window (l : live) =
    { completed = (tally_of [ l ]).Stats.completed;
      elapsed = Array.fold_left Float.max l.t0 l.done_at -. l.t0;
      latencies = latencies l }
  in
  let stages =
    List.concat_map
      (fun (l : live) ->
        List.filter_map
          (fun (o : Service.outcome) ->
            match o.Service.status with Service.Done { stage; _ } -> Some stage | _ -> None)
          l.report.Service.outcomes)
      lives
  in
  let acs = List.length (List.filter (String.equal "acs") stages) in
  let saving, saving_n, saving_check = energy_saving lives in
  ( saving_check,
    timing_metrics ~setup ~tally:(tally_of lives) (List.map window lives)
    @ [ metric ~samples:(List.length stages) "acs_share" "share"
      (float_of_int acs /. float_of_int (Int.max 1 (List.length stages)));
        metric ~samples:saving_n "energy_saving_pct" "%" saving ] )

let run ~dir ~warm ~seed ~seconds ~traced =
  let snapshot = if warm then Some (prepare ~dir ~seed) else None in
  let setup, loads = time_set_ups ~dir ~snapshot in
  let generator seconds =
    if warm then warm_generator ~seed ~seconds else cold_generator ~seed ~seconds
  in
  let sock = Filename.concat dir "serve.sock" in
  (* the service runs on the process-wide pool, created before serving *)
  ignore (Pool.shared ~jobs);
  let served, _ = set_up ~sock ~snapshot in
  if not traced then begin
    let passes = if warm then warm_lifetimes else 1 in
    let lives =
      List.init passes (fun i ->
          let served = if i = 0 then served else fst (set_up ~sock ~snapshot) in
          live ~dir ~served ~traced:false
            ~next:(generator (seconds /. float_of_int passes)))
    in
    let peak = peak_mem_mb () in
    let saving_check, metrics = e2e_metrics ~setup lives in
    { checks = List.map accounting_check lives @ [ saving_check ];
      tally = tally_of lives;
      metrics = metrics @ [ metric ~samples:1 "peak_heap_mb" "MB" peak ] }
  end
  else begin
    (* The same requests twice, a quarter of the run's work each:
       untraced, then traced; the difference is the tracing overhead.
       The replay and the decomposed pass re-solve every traced request,
       so a traced run costs about what an untraced one does. *)
    let quarter = seconds /. 4. in
    let l0 = live ~dir ~served ~traced:false ~next:(generator quarter) in
    let served, _ = set_up ~sock ~snapshot in
    let l = live ~dir ~served ~traced:true ~next:(generator quarter) in
    let checks = [ accounting_check l; replay_check ~dir ~snapshot l ] in
    let trace = Trace.create () in
    let c = Layers.counters () in
    let stages = decompose trace c ~snapshot l in
    let outcomes = Array.of_list l.report.Service.outcomes in
    let mismatches = ref 0 in
    Array.iteri
      (fun k (o : Service.outcome) ->
        match (o.Service.status, stages.(k)) with
        | Service.Done { stage; _ }, Some s when String.equal s stage -> ()
        | Service.Failed _, None -> ()
        | _ -> incr mismatches)
      outcomes;
    List.iter
      (fun (name, start, stop) -> ignore (Trace.add trace ~name ~start ~stop ~rid:(-1) ()))
      l.save_spans;
    let spans = Trace.spans trace in
    let lat = latencies l in
    let layers = Perlayer.layer_time spans in
    let st = Cache.stats l.cache in
    let lookups = st.Cache.s_hits + st.Cache.s_misses + st.Cache.s_stale in
    let waves = Array.length l.folds in
    let processed = l.report.Service.processed in
    let retries =
      List.fold_left
        (fun acc (o : Service.outcome) -> acc + Int.max 0 (o.Service.attempts - 1))
        0 l.report.Service.outcomes
    in
    let waits =
      Array.of_list
        (List.filter_map
           (fun k ->
             Option.map
               (fun t -> ms (t -. l.sent_at.(k)))
               (Hashtbl.find_opt l.solve_start l.reqs.(k).Request.id))
           (List.init (Array.length l.reqs) Fun.id))
    in
    let opens =
      List.fold_left
        (fun acc (s : Lepts_serve.Shard.stat) ->
          acc
          + List.length
              (List.filter (fun (_, st) -> st = Breaker.Open) s.Lepts_serve.Shard.transitions))
        0 l.report.Service.shards
    in
    let share a = (Perlayer.ratio a lookups, lookups) in
    let measured =
      Perlayer.of_spans spans c
      @ [ ("breaker.open_count", (float_of_int opens, processed));
          ("cache.hit_share", share st.Cache.s_hits);
          ("cache.stale_share", share st.Cache.s_stale);
          ("cache.miss_share", share st.Cache.s_misses);
          ("cache.evictions", (float_of_int st.Cache.s_evictions, lookups));
          ("cache.save_ms", (ms (Stats.mean (Array.of_list l.cache_saves)), List.length l.cache_saves));
          ("cache.snapshot_kb",
            (float_of_int (file_size (Filename.concat dir "live.cache")) /. 1024., 1));
          ("cache.load_ms",
            if warm then (ms (Stats.median loads), Array.length loads) else (0., 0));
          ("transport.polls", (float_of_int l.batches, l.batches));
          ("transport.journal_save_ms",
            (ms (Stats.mean (Array.of_list l.journal_saves)), List.length l.journal_saves));
          ("service.waves", (float_of_int waves, waves));
          ("service.wave_size", (Perlayer.ratio processed waves, waves));
          ("service.coalesced_share", (Perlayer.ratio l.report.Service.coalesced processed, processed));
          ("service.retries", (float_of_int retries, processed));
          ("service.queue_wait_ms", (Stats.mean waits, Array.length waits));
          ("service.unattributed_share",
            (Perlayer.unattributed ~e2e:lat ~layers, Array.length lat));
          ("trace.overhead_pct",
            (Perlayer.overhead_pct ~traced:lat ~untraced:(latencies l0), Array.length lat)) ]
    in
    { checks =
        checks
        @ [ check "trace.decomposition" (!mismatches = 0)
              (Printf.sprintf "%d of %d requests reproduced a different stage"
                 !mismatches (Array.length outcomes)) ];
      tally = tally_of [ l ];
      metrics = Perlayer.complete measured }
  end
