(* Tests for the simulator: caches, MSHRs, DRAM, hardware prefetchers, the
   memory hierarchy, the interpreter's timing model, and multicore runs. *)

module Cache = Asap_sim.Cache
module Dram = Asap_sim.Dram
module Mshr = Asap_sim.Mshr
module Hp = Asap_sim.Hw_prefetcher
module Machine = Asap_sim.Machine
module Hierarchy = Asap_sim.Hierarchy
module Runtime = Asap_sim.Runtime
module Interp = Asap_sim.Interp
module Exec = Asap_sim.Exec
open Asap_ir

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Cache --------------------------------------------------------- *)

let test_cache_hit_miss () =
  let c = Cache.create ~size_bytes:(4 * 64) ~ways:2 ~line_bytes:64 in
  check "cold miss" true (Cache.lookup c 0 = Cache.no_hit);
  Cache.insert c 0 ~prov:Cache.demand_prov;
  check "hit" true (Cache.lookup c 0 = Cache.demand_prov)

let test_cache_lru_eviction () =
  (* 2 sets x 2 ways; lines 0,2,4 map to set 0. *)
  let c = Cache.create ~size_bytes:(4 * 64) ~ways:2 ~line_bytes:64 in
  Cache.insert c 0 ~prov:Cache.demand_prov;
  Cache.insert c 2 ~prov:Cache.demand_prov;
  let (_ : int) = Cache.lookup c 0 in            (* refresh line 0 *)
  Cache.insert c 4 ~prov:Cache.demand_prov;      (* evicts LRU = line 2 *)
  check "line 0 kept" true (Cache.probe c 0);
  check "line 2 evicted" false (Cache.probe c 2);
  check "line 4 present" true (Cache.probe c 4)

let test_cache_prefetch_provenance () =
  let c = Cache.create ~size_bytes:(4 * 64) ~ways:2 ~line_bytes:64 in
  Cache.insert c 7 ~prov:3;
  check_int "prefetch provenance" 3 (Cache.lookup c 7);
  (* Second touch: now demand-resident. *)
  check "prov cleared" true (Cache.lookup c 7 = Cache.demand_prov)

let test_cache_geometry_validation () =
  (try
     let (_ : Cache.t) =
       Cache.create ~size_bytes:(3 * 64) ~ways:2 ~line_bytes:64
     in
     Alcotest.fail "accepted non-pow2 sets"
   with Invalid_argument _ -> ())

(* --- DRAM ---------------------------------------------------------- *)

let test_dram_bandwidth_queueing () =
  let d = Dram.create ~latency:100 ~gap:4 in
  let t1 = Dram.fill d ~at:0 in
  let t2 = Dram.fill d ~at:0 in
  let t3 = Dram.fill d ~at:0 in
  check_int "first" 100 t1;
  check_int "queued by gap" 104 t2;
  check_int "queued more" 108 t3;
  check_int "lines counted" 3 d.Dram.lines;
  (* A later request after the queue drains sees only latency. *)
  let t4 = Dram.fill d ~at:1000 in
  check_int "idle channel" 1100 t4

(* --- MSHR ---------------------------------------------------------- *)

let test_mshr () =
  let m = Mshr.create 2 in
  Mshr.add ~prov:(-1) m 10 50;
  Mshr.add ~prov:(-1) m 11 60;
  check "full" true (Mshr.full m);
  check_int "find" 50 (Mshr.find m 10);
  check_int "earliest" 50 (Mshr.earliest m);
  Mshr.expire m ~now:55;
  check "expired one" false (Mshr.full m);
  check_int "gone" (-1) (Mshr.find m 10);
  check_int "other kept" 60 (Mshr.find m 11);
  check_int "earliest after expire" 60 (Mshr.earliest m)

(* --- Hardware prefetchers ------------------------------------------ *)

(* Feed one observation and collect the requested lines as a list. *)
let observe (p : Hp.t) ?(pc = 1) ?(hit = false) addr =
  let out = Array.make Hp.max_requests 0 in
  let n = Hp.observe p ~pc ~addr ~line:(addr asr 6) ~hit ~out in
  Array.to_list (Array.sub out 0 n)

let test_nlp () =
  let p = Hp.l1_nlp () in
  (match observe p 640 with
   | [ line ] -> check_int "next line" 11 line
   | _ -> Alcotest.fail "nlp must fire on a miss");
  check "silent on hit" true (observe p ~hit:true 640 = [])

let test_ipp_stride_detection () =
  let p = Hp.l1_ipp ~streams:2 ~lookahead:4 ~line_shift:6 () in
  (* Train PC 1 with stride 256 (4 lines). *)
  let fire = ref [] in
  List.iter (fun a -> fire := observe p ~pc:1 a) [ 0; 256; 512; 768 ];
  (match !fire with
   | [ line ] -> check_int "strided target" ((768 + (256 * 4)) asr 6) line
   | _ -> Alcotest.fail "ipp must fire after training");
  (* Replacement hysteresis: an established stream is not displaced by a
     burst of other PCs (capacity 2: PC 2 takes the free slot, PC 3 only
     decays). *)
  List.iter
    (fun (pc, a) -> ignore (observe p ~pc a))
    [ (2, 0); (2, 64); (3, 0); (3, 64) ];
  check "established stream retained" true (observe p ~pc:1 1024 <> []);
  (* Sustained conflicts eventually decay and evict it. *)
  for k = 1 to 200 do
    ignore (observe p ~pc:(10 + (k mod 7)) (k * 8192))
  done;
  check "decayed stream evicted" true (observe p ~pc:1 1280 = [])

let test_streamer () =
  let p = Hp.mlc_streamer ~line_shift:6 () in
  ignore (observe p 0);
  ignore (observe p 64);
  let rs = observe p 128 in
  check "streamer fires" true (rs <> []);
  List.iter
    (fun line ->
      check "within page" true (line asr 6 = 0);
      check "ahead" true (line > 2))
    rs

let test_amp_repeated_delta () =
  let p = Hp.l2_amp () in
  ignore (observe p 0);
  ignore (observe p (5 * 64));
  let rs = observe p (10 * 64) in
  (match rs with
   | [ a; b ] ->
     check_int "stride 5" 15 a;
     check_int "stride 5 x2" 20 b
   | _ -> Alcotest.fail "amp must fire on repeated delta")

(* --- Hierarchy ----------------------------------------------------- *)

let quiet_hw =
  { Machine.l1_nlp = false; l1_ipp = false; l2_nlp = false;
    mlc_streamer = false; l2_amp = false; llc_streamer = false }

let test_hierarchy_levels () =
  let m = Machine.gracemont ~hw:quiet_hw () in
  let h = Hierarchy.create m in
  (* First access: full DRAM latency; second: L1 hit. *)
  let t1 = Hierarchy.load h ~core:0 ~pc:1 ~addr:4096 ~at:0 in
  check "dram latency" true (t1 >= m.Machine.dram_latency);
  let t2 = Hierarchy.load h ~core:0 ~pc:1 ~addr:4100 ~at:t1 in
  check_int "l1 hit" (t1 + m.Machine.lat_l1) t2;
  let st = Hierarchy.stats h in
  check_int "one l2 miss" 1 st.Hierarchy.st_l2_misses;
  check_int "two loads" 2 st.Hierarchy.st_demand_loads

let test_hierarchy_inflight_merge () =
  let m = Machine.gracemont ~hw:quiet_hw () in
  let h = Hierarchy.create m in
  let t1 = Hierarchy.load h ~core:0 ~pc:1 ~addr:8192 ~at:0 in
  (* Access the same line before the fill completes: waits, no new fill. *)
  let t2 = Hierarchy.load h ~core:0 ~pc:2 ~addr:8200 ~at:5 in
  check "merged" true (t2 <= t1 + m.Machine.lat_l1 && t2 >= t1 - 1);
  let st = Hierarchy.stats h in
  check_int "one dram line" 1 st.Hierarchy.st_dram_lines

let test_hierarchy_sw_prefetch_hides_latency () =
  let m = Machine.gracemont ~hw:quiet_hw () in
  let h = Hierarchy.create m in
  Hierarchy.prefetch h ~core:0 ~addr:16384 ~locality:2 ~at:0;
  (* Demand access after the fill completed: fast. *)
  let t = Hierarchy.load h ~core:0 ~pc:1 ~addr:16384 ~at:1000 in
  check_int "hidden" (1000 + m.Machine.lat_l1) t;
  let st = Hierarchy.stats h in
  let sw = List.assoc "sw" st.Hierarchy.st_pf in
  check_int "one sw prefetch" 1 sw.Hierarchy.p_issued;
  check_int "useful" 1 sw.Hierarchy.p_useful

let test_hierarchy_prefetch_drop_on_full_mshr () =
  let m = { (Machine.gracemont ~hw:quiet_hw ()) with Machine.mshrs = 2 } in
  let h = Hierarchy.create m in
  Hierarchy.prefetch h ~core:0 ~addr:0x10000 ~locality:2 ~at:0;
  Hierarchy.prefetch h ~core:0 ~addr:0x20000 ~locality:2 ~at:0;
  Hierarchy.prefetch h ~core:0 ~addr:0x30000 ~locality:2 ~at:0;
  let st = Hierarchy.stats h in
  let sw = List.assoc "sw" st.Hierarchy.st_pf in
  check_int "two issued" 2 sw.Hierarchy.p_issued;
  check_int "one dropped" 1 sw.Hierarchy.p_drop_mshr

let test_hierarchy_cluster_topology () =
  (* Cores 0 and 4 live in different clusters: a line brought in by core 0
     misses core 4's L2 but hits the shared L3. *)
  let m = Machine.gracemont ~hw:quiet_hw ~cores:8 () in
  let h = Hierarchy.create m in
  let t0 = Hierarchy.load h ~core:0 ~pc:1 ~addr:0x80000 ~at:0 in
  let t4 = Hierarchy.load h ~core:4 ~pc:1 ~addr:0x80000 ~at:t0 in
  check_int "L3 hit from the other cluster" (t0 + m.Machine.lat_l3) t4;
  (* A same-cluster sibling hits the shared L2. *)
  let t1 = Hierarchy.load h ~core:1 ~pc:1 ~addr:0x80000 ~at:t4 in
  check_int "L2 hit from a sibling core" (t4 + m.Machine.lat_l2) t1

let test_hierarchy_store_write_allocate () =
  let m = Machine.gracemont ~hw:quiet_hw () in
  let h = Hierarchy.create m in
  Hierarchy.store h ~core:0 ~pc:9 ~addr:0x90000 ~at:0;
  let st = Hierarchy.stats h in
  check_int "store counted" 1 st.Hierarchy.st_demand_stores;
  check_int "store miss allocates" 1 st.Hierarchy.st_dram_lines;
  (* The allocated line now hits. *)
  let t = Hierarchy.load h ~core:0 ~pc:1 ~addr:0x90000 ~at:1000 in
  check_int "subsequent load hits L1" (1000 + m.Machine.lat_l1) t

let test_hierarchy_partial_hiding () =
  let m = Machine.gracemont ~hw:quiet_hw () in
  let h = Hierarchy.create m in
  Hierarchy.prefetch h ~core:0 ~addr:0x40000 ~locality:2 ~at:0;
  (* Demand arrives mid-flight: waits only the remainder. *)
  let t = Hierarchy.load h ~core:0 ~pc:1 ~addr:0x40000 ~at:100 in
  check "partial" true (t > 100 + m.Machine.lat_l1 && t <= m.Machine.dram_latency + m.Machine.lat_l1)

(* --- Runtime ------------------------------------------------------- *)

let test_runtime_layout_and_fault () =
  let b = Builder.create () in
  let src = Builder.buf b "src" Ir.EF64 in
  let n = Builder.scalar_param b "n" Ir.Index in
  let c0 = Builder.index b 0 in
  let dst = Builder.buf b "dst" Ir.EF64 in
  Builder.for0 b "i" c0 n (fun i ->
      let x = Builder.load b src i in
      Builder.store b dst i x);
  let fn = Builder.finish b "copy" in
  let bufs =
    Runtime.layout fn
      [ (src, Runtime.RF (Array.make 4 1.)); (dst, Runtime.RF (Array.make 4 0.)) ]
  in
  check "distinct bases" true (bufs.(0).Runtime.base <> bufs.(1).Runtime.base);
  check "page aligned" true (bufs.(0).Runtime.base mod 4096 = 0);
  (try
     let (_ : [ `F of float | `I of int ]) = Runtime.read bufs.(0) 4 in
     Alcotest.fail "expected fault"
   with Runtime.Fault _ -> ())

(* --- Interp -------------------------------------------------------- *)

let free_port = Asap_sim.Stream.free_port Asap_obs.Sink.null

let copy_fn () =
  let b = Builder.create () in
  let src = Builder.buf b "src" Ir.EF64 in
  let dst = Builder.buf b "dst" Ir.EF64 in
  let n = Builder.scalar_param b "n" Ir.Index in
  let c0 = Builder.index b 0 in
  Builder.for0 b "i" c0 n (fun i ->
      let x = Builder.load b src i in
      Builder.store b dst i x);
  (Builder.finish b "copy", src, dst)

let test_interp_copy_semantics () =
  let fn, src, dst = copy_fn () in
  let s = Array.init 16 float_of_int in
  let d = Array.make 16 0. in
  let bufs = Runtime.layout fn [ (src, Runtime.RF s); (dst, Runtime.RF d) ] in
  let r = Interp.run fn ~bufs ~scalars:[ 16 ] ~mem:free_port in
  check "copied" true (d = s);
  check_int "loads" 16 r.Interp.r_loads;
  check_int "stores" 16 r.Interp.r_stores;
  check "cycles positive" true (r.Interp.r_cycles > 0)

let test_interp_latency_matters () =
  let fn, src, dst = copy_fn () in
  let mk_mem lat =
    { Interp.m_load = (fun ~pc:_ ~addr:_ ~at -> at + lat);
      m_store = (fun ~pc:_ ~addr:_ ~at:_ -> ());
      m_prefetch = (fun ~addr:_ ~locality:_ ~at:_ -> ()) }
  in
  let run lat =
    let s = Array.make 64 1. and d = Array.make 64 0. in
    let bufs = Runtime.layout fn [ (src, Runtime.RF s); (dst, Runtime.RF d) ] in
    (Interp.run fn ~bufs ~scalars:[ 64 ] ~mem:(mk_mem lat)).Interp.r_cycles
  in
  check "slower memory, more cycles" true (run 200 > run 1)

let test_interp_rob_window_bounds_mlp () =
  (* With a big window, independent misses overlap; a tiny window
     serialises them. *)
  let fn, src, dst = copy_fn () in
  let run rob =
    let s = Array.make 64 1. and d = Array.make 64 0. in
    let bufs = Runtime.layout fn [ (src, Runtime.RF s); (dst, Runtime.RF d) ] in
    let mem =
      { Interp.m_load = (fun ~pc:_ ~addr:_ ~at -> at + 300);
        m_store = (fun ~pc:_ ~addr:_ ~at:_ -> ());
        m_prefetch = (fun ~addr:_ ~locality:_ ~at:_ -> ()) }
    in
    (Interp.run ~rob_size:rob fn ~bufs ~scalars:[ 64 ] ~mem).Interp.r_cycles
  in
  check "window enables MLP" true (run 64 * 2 < run 4)

let test_interp_division_trap () =
  let b = Builder.create () in
  let dst = Builder.buf b "dst" Ir.EIdx32 in
  let c0 = Builder.index b 0 in
  let c1 = Builder.index b 1 in
  let q = Builder.ibin b Ir.Idiv c1 c0 in
  Builder.store b dst c0 q;
  let fn = Builder.finish b "div0" in
  let bufs = Runtime.layout fn [ (dst, Runtime.RI (Array.make 1 0)) ] in
  (try
     let (_ : Interp.result) = Interp.run fn ~bufs ~scalars:[] ~mem:free_port in
     Alcotest.fail "expected Trap"
   with Interp.Trap _ -> ())

let test_interp_slice () =
  let fn, src, dst = copy_fn () in
  let s = Array.init 16 float_of_int in
  let d = Array.make 16 (-1.) in
  let bufs = Runtime.layout fn [ (src, Runtime.RF s); (dst, Runtime.RF d) ] in
  let (_ : Interp.result) =
    Interp.run ~slice:(4, 8) fn ~bufs ~scalars:[ 16 ] ~mem:free_port
  in
  check "outside slice untouched" true (d.(0) = -1. && d.(8) = -1.);
  check "inside slice copied" true (d.(4) = 4. && d.(7) = 7.)

(* --- Machine / Exec / Multicore ------------------------------------ *)

let test_machine_tables () =
  let m = Machine.gracemont () in
  check "table1 mentions clusters" true
    (Astring_contains.contains (Machine.table1 m) "per cluster");
  let t2 = Machine.table2 Machine.hw_optimized in
  check "optimized disables NLP" true
    (Astring_contains.contains t2 "L1 NLP        | next line on L1 miss           | Off");
  check "optimized disables AMP" true
    (Astring_contains.contains t2 "| Off");
  check "spmm keeps amp" true
    Machine.(hw_optimized_spmm.l2_amp)

let spmv_like_fn () =
  (* for i: for jj in pos[i]..pos[i+1]: acc += vals[jj] * c[crd[jj]] *)
  let b = Builder.create () in
  let pos = Builder.buf b "pos" Ir.EIdx32 in
  let crd = Builder.buf b "crd" Ir.EIdx32 in
  let vals = Builder.buf b "vals" Ir.EF64 in
  let c = Builder.buf b "c" Ir.EF64 in
  let a = Builder.buf b "a" Ir.EF64 in
  let n = Builder.scalar_param b "n" Ir.Index in
  let c0 = Builder.index b 0 in
  let c1 = Builder.index b 1 in
  Builder.for0 b "i" c0 n (fun i ->
      let lo = Builder.load b pos i in
      let hi = Builder.load b pos (Builder.iadd b i c1) in
      let z = Builder.f64 b 0. in
      let acc =
        Builder.for_ b ~carried:[ ("acc", Ir.F64, z) ] "jj" lo hi
          (fun jj args ->
            let j = Builder.load b crd jj in
            let v = Builder.load b vals jj in
            let x = Builder.load b c j in
            [ Builder.fadd b (List.hd args) (Builder.fmul b v x) ])
      in
      Builder.store b a i (List.hd acc));
  (Builder.finish b "spmv_like", pos, crd, vals, c, a)

let test_multicore_matches_single () =
  let fn, pos, crd, vals, c, a = spmv_like_fn () in
  let rows = 64 and deg = 8 in
  let nnz = rows * deg in
  let pos_a = Array.init (rows + 1) (fun i -> i * deg) in
  let crd_a = Array.init nnz (fun k -> (k * 37) mod 256) in
  let vals_a = Array.init nnz (fun k -> float_of_int (k mod 5) +. 1.) in
  let c_a = Array.init 256 (fun j -> float_of_int j) in
  let run threads =
    let a_a = Array.make rows 0. in
    let bufs =
      [ (pos, Runtime.RI pos_a); (crd, Runtime.RI crd_a);
        (vals, Runtime.RF vals_a); (c, Runtime.RF c_a);
        (a, Runtime.RF a_a) ]
    in
    let m = Machine.gracemont ~hw:quiet_hw ~cores:4 () in
    let r =
      if threads = 1 then Exec.run m fn ~bufs ~scalars:[ rows ]
      else
        Exec.run_parallel (Exec.prepare m fn ~bufs) ~threads
          ~outer_extent:rows ~scalars:[ rows ]
    in
    (Array.copy a_a, r)
  in
  let a1, r1 = run 1 in
  let a4, r4 = run 4 in
  check "same results" true (a1 = a4);
  check "parallel faster" true
    (r4.Exec.rp_cycles < r1.Exec.rp_cycles);
  check "instructions conserved" true
    (abs (r4.Exec.rp_instructions - r1.Exec.rp_instructions)
     < r1.Exec.rp_instructions / 10)

let test_multicore_deterministic () =
  let fn, pos, crd, vals, c, a = spmv_like_fn () in
  let rows = 32 and deg = 4 in
  let nnz = rows * deg in
  let run () =
    let a_a = Array.make rows 0. in
    let bufs =
      [ (pos, Runtime.RI (Array.init (rows + 1) (fun i -> i * deg)));
        (crd, Runtime.RI (Array.init nnz (fun k -> (k * 13) mod 64)));
        (vals, Runtime.RF (Array.make nnz 1.));
        (c, Runtime.RF (Array.make 64 2.));
        (a, Runtime.RF a_a) ]
    in
    let m = Machine.gracemont ~hw:quiet_hw ~cores:2 () in
    (Exec.run_parallel (Exec.prepare m fn ~bufs) ~threads:2
       ~outer_extent:rows ~scalars:[ rows ]).Exec.rp_cycles
  in
  check_int "deterministic cycles" (run ()) (run ())

let test_exec_metrics () =
  let fn, pos, crd, vals, c, a = spmv_like_fn () in
  let rows = 16 and deg = 2 in
  let nnz = rows * deg in
  let bufs =
    [ (pos, Runtime.RI (Array.init (rows + 1) (fun i -> i * deg)));
      (crd, Runtime.RI (Array.init nnz (fun k -> k mod 32)));
      (vals, Runtime.RF (Array.make nnz 1.));
      (c, Runtime.RF (Array.make 32 1.));
      (a, Runtime.RF (Array.make rows 0.)) ]
  in
  let m = Machine.gracemont ~hw:quiet_hw () in
  let r = Exec.run m fn ~bufs ~scalars:[ rows ] in
  check "mpki finite" true (Exec.l2_mpki r >= 0.);
  check "throughput positive" true (Exec.throughput_nnz_per_ms r ~nnz > 0.);
  check "ai positive" true (Exec.arithmetic_intensity r > 0.);
  check "summary mentions cycles" true
    (Astring_contains.contains (Exec.summary r) "cycles")

let suite =
  [ Alcotest.test_case "cache hit/miss" `Quick test_cache_hit_miss;
    Alcotest.test_case "cache lru" `Quick test_cache_lru_eviction;
    Alcotest.test_case "cache provenance" `Quick test_cache_prefetch_provenance;
    Alcotest.test_case "cache geometry" `Quick test_cache_geometry_validation;
    Alcotest.test_case "dram queueing" `Quick test_dram_bandwidth_queueing;
    Alcotest.test_case "mshr" `Quick test_mshr;
    Alcotest.test_case "nlp" `Quick test_nlp;
    Alcotest.test_case "ipp stride + capacity" `Quick test_ipp_stride_detection;
    Alcotest.test_case "mlc streamer" `Quick test_streamer;
    Alcotest.test_case "amp repeated delta" `Quick test_amp_repeated_delta;
    Alcotest.test_case "hierarchy levels" `Quick test_hierarchy_levels;
    Alcotest.test_case "hierarchy inflight merge" `Quick
      test_hierarchy_inflight_merge;
    Alcotest.test_case "sw prefetch hides latency" `Quick
      test_hierarchy_sw_prefetch_hides_latency;
    Alcotest.test_case "prefetch dropped on full mshr" `Quick
      test_hierarchy_prefetch_drop_on_full_mshr;
    Alcotest.test_case "partial hiding" `Quick test_hierarchy_partial_hiding;
    Alcotest.test_case "cluster topology" `Quick
      test_hierarchy_cluster_topology;
    Alcotest.test_case "store write-allocate" `Quick
      test_hierarchy_store_write_allocate;
    Alcotest.test_case "runtime layout + fault" `Quick
      test_runtime_layout_and_fault;
    Alcotest.test_case "interp copy" `Quick test_interp_copy_semantics;
    Alcotest.test_case "interp latency" `Quick test_interp_latency_matters;
    Alcotest.test_case "interp rob window" `Quick
      test_interp_rob_window_bounds_mlp;
    Alcotest.test_case "interp div trap" `Quick test_interp_division_trap;
    Alcotest.test_case "interp slice" `Quick test_interp_slice;
    Alcotest.test_case "machine tables" `Quick test_machine_tables;
    Alcotest.test_case "multicore matches single" `Quick
      test_multicore_matches_single;
    Alcotest.test_case "multicore deterministic" `Quick
      test_multicore_deterministic;
    Alcotest.test_case "exec metrics" `Quick test_exec_metrics ]
