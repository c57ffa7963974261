module Pool = Olfu_pool.Pool

(* Every index in [0, n) must be visited exactly once, whatever the worker
   count or chunk size.  [oversubscribe] so the multi-domain scheduler is
   exercised even on a single-core host.  Workers only count what they
   see; every assertion runs after the barrier, on this domain, because
   Alcotest prints through [Format], whose queue is not domain-safe. *)
let check_coverage ~jobs ~n ?chunk () =
  Pool.with_pool ~oversubscribe:true ~jobs (fun p ->
      let hits = Array.make (max n 1) 0 in
      let bad_worker = Atomic.make 0 in
      let m = Mutex.create () in
      Pool.parallel_chunks p ~n ?chunk (fun ~worker ~lo ~hi ->
          if worker < 0 || worker >= Pool.jobs p then Atomic.incr bad_worker;
          Mutex.lock m;
          for i = lo to hi - 1 do
            hits.(i) <- hits.(i) + 1
          done;
          Mutex.unlock m);
      Alcotest.(check int) "worker ids in range" 0 (Atomic.get bad_worker);
      for i = 0 to n - 1 do
        if hits.(i) <> 1 then
          Alcotest.failf "index %d visited %d times (jobs=%d n=%d)" i
            hits.(i) jobs n
      done)

let test_full_coverage () =
  List.iter
    (fun jobs ->
      List.iter
        (fun n -> check_coverage ~jobs ~n ())
        [ 0; 1; 7; 64; 1000 ];
      check_coverage ~jobs ~n:100 ~chunk:1 ();
      check_coverage ~jobs ~n:100 ~chunk:33 ();
      check_coverage ~jobs ~n:100 ~chunk:1000 ())
    [ 1; 2; 3; 4 ]

let test_jobs_clamped () =
  Pool.with_pool ~jobs:0 (fun p ->
      Alcotest.(check int) "clamped to 1" 1 (Pool.jobs p));
  Pool.with_pool ~oversubscribe:true ~jobs:3 (fun p ->
      Alcotest.(check int) "as requested when oversubscribed" 3 (Pool.jobs p));
  Pool.with_pool ~jobs:64 (fun p ->
      Alcotest.(check int) "clamped to the hardware"
        (min 64 (Pool.hardware_jobs ()))
        (Pool.jobs p))

exception Boom of int

let test_exception_propagates () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~oversubscribe:true ~jobs (fun p ->
          let raised =
            try
              Pool.parallel_chunks p ~n:100 ~chunk:5
                (fun ~worker:_ ~lo:_ ~hi ->
                  if hi >= 50 then raise (Boom hi));
              false
            with Boom _ -> true
          in
          Alcotest.(check bool) "exception re-raised at the barrier" true
            raised;
          (* the pool must still be usable afterwards *)
          let sum = Atomic.make 0 in
          Pool.parallel_chunks p ~n:10 (fun ~worker:_ ~lo ~hi ->
              for i = lo to hi - 1 do
                ignore (Atomic.fetch_and_add sum i : int)
              done);
          Alcotest.(check int) "pool survives a failed section" 45
            (Atomic.get sum)))
    [ 1; 2; 3; 4 ]

let test_shutdown_idempotent () =
  let p = Pool.create ~oversubscribe:true ~jobs:3 () in
  Pool.parallel_chunks p ~n:5 (fun ~worker:_ ~lo:_ ~hi:_ -> ());
  Pool.shutdown p;
  Pool.shutdown p;
  let rejected =
    try
      Pool.parallel_chunks p ~n:100 ~chunk:5 (fun ~worker:_ ~lo:_ ~hi:_ -> ());
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "parallel section after shutdown rejected" true
    rejected

let test_default_jobs_clamp () =
  (* default_jobs only reads OLFU_JOBS; whatever it returns must be a
     legal worker count *)
  let j = Pool.default_jobs () in
  Alcotest.(check bool) "default in [1,64]" true (j >= 1 && j <= 64)

(* --- one slow item ------------------------------------------------- *)

let spin_until ?(timeout = 20.) cond =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    if cond () then true
    else if Unix.gettimeofday () -. t0 > timeout then false
    else begin
      Domain.cpu_relax ();
      go ()
    end
  in
  go ()

(* Item 0 blocks until every other item is done.  With [chunk:1] the
   blocked worker holds only item 0, so the rest is completable only if
   its sibling claims it: the test passes iff no item is stranded behind
   a blocked worker (and times out into a failure, not a deadlock,
   otherwise). *)
let test_steal_liveness () =
  Pool.with_pool ~oversubscribe:true ~jobs:2 (fun p ->
      let n = 200 in
      let done_ = Atomic.make 0 in
      Pool.parallel_chunks p ~n ~chunk:1 (fun ~worker:_ ~lo ~hi:_ ->
          if lo = 0 then begin
            if not (spin_until (fun () -> Atomic.get done_ = n - 1)) then
              Alcotest.failf
                "worker blocked with items stranded: %d/%d items done"
                (Atomic.get done_) (n - 1)
          end
          else ignore (Atomic.fetch_and_add done_ 1 : int)))

(* Exception raised by the sibling of a blocked worker: the worker on
   item 0 blocks, so item [n / 2] can only be processed by its sibling,
   which raises there.  The blocker unblocks on the raiser's flag, the
   Boom must surface at the barrier, and the pool must stay usable. *)
let test_exception_during_steal () =
  Pool.with_pool ~oversubscribe:true ~jobs:2 (fun p ->
      let n = 200 in
      let done_ = Atomic.make 0 in
      let saw_boom = Atomic.make false in
      let raised =
        try
          Pool.parallel_chunks p ~n ~chunk:1 (fun ~worker:_ ~lo ~hi:_ ->
              if lo = 0 then begin
                if
                  not
                    (spin_until (fun () ->
                         Atomic.get saw_boom || Atomic.get done_ = n - 1))
                then Alcotest.fail "blocker timed out: no Boom"
              end
              else if lo = n / 2 then begin
                Atomic.set saw_boom true;
                raise (Boom lo)
              end
              else ignore (Atomic.fetch_and_add done_ 1 : int));
          false
        with Boom _ -> true
      in
      Alcotest.(check bool) "the sibling raised" true (Atomic.get saw_boom);
      Alcotest.(check bool) "Boom from the sibling re-raised" true raised;
      let sum = Atomic.make 0 in
      Pool.parallel_chunks p ~n:10 (fun ~worker:_ ~lo ~hi ->
          for i = lo to hi - 1 do
            ignore (Atomic.fetch_and_add sum i : int)
          done);
      Alcotest.(check int) "pool survives the failed section" 45
        (Atomic.get sum))

(* Pathologically skewed per-item costs (one huge item + many tiny ones)
   must not change results at any jobs value: every index is processed
   exactly once and per-index outputs match the sequential reference. *)
let prop_skewed_costs_jobs_invariant =
  QCheck2.Test.make ~count:25
    ~name:"skewed costs: results jobs-invariant, coverage exact"
    QCheck2.Gen.(
      triple (int_range 1 150) (int_range 1 4) (int_range 0 149))
    (fun (n, jobs, heavy) ->
      let heavy = heavy mod n in
      let reference = Array.init n (fun i -> (i * i) + 1) in
      let out = Array.make n 0 in
      let hits = Array.make n 0 in
      Pool.with_pool ~oversubscribe:true ~jobs (fun p ->
          Pool.parallel_chunks p ~n ~chunk:1 (fun ~worker:_ ~lo ~hi:_ ->
              if lo = heavy then begin
                (* burn time so the siblings drain the rest *)
                let acc = ref 0 in
                for k = 0 to 200_000 do
                  acc := !acc + k
                done;
                ignore (Sys.opaque_identity !acc : int)
              end;
              (* per-index slot writes: sharded by construction *)
              out.(lo) <- (lo * lo) + 1;
              hits.(lo) <- hits.(lo) + 1));
      out = reference && Array.for_all (fun h -> h = 1) hits)

let () =
  Alcotest.run "pool"
    [
      ( "pool",
        [
          Alcotest.test_case "full index coverage" `Quick test_full_coverage;
          Alcotest.test_case "jobs clamped" `Quick test_jobs_clamped;
          Alcotest.test_case "exception propagation" `Quick
            test_exception_propagates;
          Alcotest.test_case "shutdown idempotent" `Quick
            test_shutdown_idempotent;
          Alcotest.test_case "default jobs" `Quick test_default_jobs_clamp;
          Alcotest.test_case "steal liveness" `Quick test_steal_liveness;
          Alcotest.test_case "exception during steal" `Quick
            test_exception_during_steal;
          QCheck_alcotest.to_alcotest prop_skewed_costs_jobs_invariant;
        ] );
    ]
