(** Hand-built IR kernels shared by the executor and transformation
    tests, together with their expected outputs. *)

open Pgpu_ir
module Runtime = Pgpu_runtime.Runtime

let f32 = Types.F32
let host_f32 = Types.Memref (Types.Host, f32)

(** Fail unless [actual] matches [expected] elementwise within the
    relative tolerance [tol]. A non-finite value on either side fails
    too: the tolerance test is false whenever either side is NaN, so on
    its own it would pass a NaN output. *)
let check_floats ~tol what expected actual =
  if List.length expected <> List.length actual then
    Alcotest.failf "%s: length mismatch %d vs %d" what (List.length expected)
      (List.length actual);
  List.iteri
    (fun i (e, a) ->
      if
        (not (Float.is_finite e && Float.is_finite a))
        || Float.abs (e -. a) > tol *. (1. +. Float.abs e)
      then Alcotest.failf "%s[%d]: expected %g, got %g" what i e a)
    (List.combine expected actual)

(** vecadd: c[i] = a[i] + b[i], 256-thread blocks, guarded tail. *)
let vecadd_module () =
  let n = Value.fresh ~hint:"n" Types.I32 in
  let f =
    Builder.func "main" [ n ] [ host_f32 ] (fun b ->
        let ha = Builder.alloc b Types.Host f32 n in
        let hb = Builder.alloc b Types.Host f32 n in
        let hc = Builder.alloc b Types.Host f32 n in
        let s1 = Builder.const_i b 11 and s2 = Builder.const_i b 22 in
        ignore (Builder.intrinsic b "fill_rand" [] [ ha; s1 ]);
        ignore (Builder.intrinsic b "fill_rand" [] [ hb; s2 ]);
        let da = Builder.alloc b Types.Global f32 n in
        let db = Builder.alloc b Types.Global f32 n in
        let dc = Builder.alloc b Types.Global f32 n in
        Builder.add b (Instr.Memcpy { dst = da; src = ha; count = n });
        Builder.add b (Instr.Memcpy { dst = db; src = hb; count = n });
        Builder.gpu_wrapper b "vecadd" (fun wb ->
            let c255 = Builder.const_i wb 255 in
            let c256 = Builder.const_i wb 256 in
            let t1 = Builder.add_ wb n c255 in
            let grid = Builder.div_ wb t1 c256 in
            ignore
              (Builder.parallel wb Instr.Blocks [ grid ] (fun bb _ bivs ->
                   let bid = List.hd bivs in
                   ignore
                     (Builder.parallel bb Instr.Threads [ c256 ] (fun tb _ tivs ->
                          let tid = List.hd tivs in
                          let base = Builder.mul_ tb bid c256 in
                          let i = Builder.add_ tb base tid in
                          let cond = Builder.cmp tb Ops.Lt i n in
                          Builder.if0 tb cond (fun ib ->
                              let x = Builder.load ib da i in
                              let y = Builder.load ib db i in
                              let z = Builder.add_ ib x y in
                              Builder.store ib dc i z))))));
        Builder.add b (Instr.Memcpy { dst = hc; src = dc; count = n });
        Builder.return b [ hc ])
  in
  { Instr.funcs = [ f ] }

let vecadd_expected n =
  let a = Runtime.rand_array 11 n and b = Runtime.rand_array 22 n in
  List.init n (fun i -> a.(i) +. b.(i))

(** Block-sum reduction with shared memory and barriers; one output
    element per block of 256 inputs. *)
let reduce_module () =
  let nblocks = Value.fresh ~hint:"nb" Types.I32 in
  let f =
    Builder.func "main" [ nblocks ] [ host_f32 ] (fun b ->
        let c256 = Builder.const_i b 256 in
        let n = Builder.mul_ b nblocks c256 in
        let hin = Builder.alloc b Types.Host f32 n in
        let hout = Builder.alloc b Types.Host f32 nblocks in
        let s = Builder.const_i b 7 in
        ignore (Builder.intrinsic b "fill_rand" [] [ hin; s ]);
        let din = Builder.alloc b Types.Global f32 n in
        let dout = Builder.alloc b Types.Global f32 nblocks in
        Builder.add b (Instr.Memcpy { dst = din; src = hin; count = n });
        Builder.gpu_wrapper b "reduce" (fun wb ->
            let c256 = Builder.const_i wb 256 in
            ignore
              (Builder.parallel wb Instr.Blocks [ nblocks ] (fun bb _ bivs ->
                   let bid = List.hd bivs in
                   let smem = Builder.alloc_shared bb f32 256 in
                   ignore
                     (Builder.parallel bb Instr.Threads [ c256 ] (fun tb tpid tivs ->
                          let tid = List.hd tivs in
                          let base = Builder.mul_ tb bid c256 in
                          let i = Builder.add_ tb base tid in
                          let v = Builder.load tb din i in
                          Builder.store tb smem tid v;
                          Builder.barrier tb tpid;
                          let c0 = Builder.const_i tb 0 in
                          let c1 = Builder.const_i tb 1 in
                          let c8 = Builder.const_i tb 8 in
                          let c128 = Builder.const_i tb 128 in
                          ignore
                            (Builder.for_ tb c0 c8 c1 [] (fun fb k _ ->
                                 let stride =
                                   Builder.let_ fb Types.I32 (Instr.Binop (Ops.Shr, c128, k))
                                 in
                                 let cond = Builder.cmp fb Ops.Lt tid stride in
                                 Builder.if0 fb cond (fun ib ->
                                     let j = Builder.add_ ib tid stride in
                                     let x = Builder.load ib smem tid in
                                     let y = Builder.load ib smem j in
                                     let z = Builder.add_ ib x y in
                                     Builder.store ib smem tid z);
                                 Builder.barrier fb tpid;
                                 []));
                          let is0 = Builder.cmp tb Ops.Eq tid c0 in
                          Builder.if0 tb is0 (fun ib ->
                              let r = Builder.load ib smem c0 in
                              Builder.store ib dout bid r))))));
        Builder.add b (Instr.Memcpy { dst = hout; src = dout; count = nblocks });
        Builder.return b [ hout ])
  in
  { Instr.funcs = [ f ] }

let reduce_expected nb =
  let input = Runtime.rand_array 7 (nb * 256) in
  List.init nb (fun blk ->
      let s = ref 0. in
      for t = 0 to 255 do
        s := !s +. input.((blk * 256) + t)
      done;
      !s)

(** A 2-D tiled stencil: out[y][x] = average of the 16x16 tile loaded
    through shared memory; exercises 2-D grids and blocks plus
    barriers. Grid is (n/16, n/16), block (16, 16). *)
let tile_avg_module () =
  let ntiles = Value.fresh ~hint:"nt" Types.I32 in
  let f =
    Builder.func "main" [ ntiles ] [ host_f32 ] (fun b ->
        let c16 = Builder.const_i b 16 in
        let side = Builder.mul_ b ntiles c16 in
        let n = Builder.mul_ b side side in
        let hin = Builder.alloc b Types.Host f32 n in
        let hout = Builder.alloc b Types.Host f32 n in
        let s = Builder.const_i b 9 in
        ignore (Builder.intrinsic b "fill_rand" [] [ hin; s ]);
        let din = Builder.alloc b Types.Global f32 n in
        let dout = Builder.alloc b Types.Global f32 n in
        Builder.add b (Instr.Memcpy { dst = din; src = hin; count = n });
        Builder.gpu_wrapper b "tile_avg" (fun wb ->
            let c16 = Builder.const_i wb 16 in
            ignore
              (Builder.parallel wb Instr.Blocks [ ntiles; ntiles ] (fun bb _ bivs ->
                   let bx = List.nth bivs 0 and by = List.nth bivs 1 in
                   let smem = Builder.alloc_shared bb f32 256 in
                   ignore
                     (Builder.parallel bb Instr.Threads [ c16; c16 ] (fun tb tpid tivs ->
                          let tx = List.nth tivs 0 and ty = List.nth tivs 1 in
                          let gx0 = Builder.mul_ tb bx c16 in
                          let gx = Builder.add_ tb gx0 tx in
                          let gy0 = Builder.mul_ tb by c16 in
                          let gy = Builder.add_ tb gy0 ty in
                          let row = Builder.mul_ tb gy side in
                          let gidx = Builder.add_ tb row gx in
                          let trow = Builder.mul_ tb ty c16 in
                          let tidx = Builder.add_ tb trow tx in
                          let v = Builder.load tb din gidx in
                          Builder.store tb smem tidx v;
                          Builder.barrier tb tpid;
                          (* average the tile *)
                          let c0 = Builder.const_i tb 0 in
                          let c1 = Builder.const_i tb 1 in
                          let c256i = Builder.const_i tb 256 in
                          let zero = Builder.const_f tb 0. in
                          let sum =
                            Builder.for_ tb c0 c256i c1 [ zero ] (fun fb k args ->
                                let x = Builder.load fb smem k in
                                [ Builder.add_ fb (List.hd args) x ])
                          in
                          let c256f = Builder.const_f tb 256. in
                          let avg = Builder.div_ tb (List.hd sum) c256f in
                          let vv = Builder.load tb smem tidx in
                          let r = Builder.add_ tb avg vv in
                          Builder.store tb dout gidx r)))));
        Builder.add b (Instr.Memcpy { dst = hout; src = dout; count = n });
        Builder.return b [ hout ])
  in
  { Instr.funcs = [ f ] }

let tile_avg_expected ntiles =
  let side = ntiles * 16 in
  let input = Runtime.rand_array 9 (side * side) in
  List.init (side * side) (fun gidx ->
      let gx = gidx mod side and gy = gidx / side in
      let bx = gx / 16 and by = gy / 16 in
      let sum = ref 0. in
      (* match the kernel's shared-tile iteration order: k = ty*16+tx *)
      for ty = 0 to 15 do
        for tx = 0 to 15 do
          let x = (bx * 16) + tx and y = (by * 16) + ty in
          sum := !sum +. input.((y * side) + x)
        done
      done;
      (!sum /. 256.) +. input.(gidx))

(** A kernel that is ILLEGAL to block-coarsen: a barrier nested in
    control flow that depends on the block index (Fig. 10, right). *)
let block_divergent_barrier_module () =
  let nblocks = Value.fresh ~hint:"nb" Types.I32 in
  let f =
    Builder.func "main" [ nblocks ] [ host_f32 ] (fun b ->
        let c32 = Builder.const_i b 32 in
        let n = Builder.mul_ b nblocks c32 in
        let hout = Builder.alloc b Types.Host f32 n in
        let dout = Builder.alloc b Types.Global f32 n in
        let czero = Builder.const_f b 0. in
        ignore (Builder.intrinsic b "fill_const" [] [ dout; czero ]);
        Builder.gpu_wrapper b "divergent" (fun wb ->
            let c32 = Builder.const_i wb 32 in
            let c2 = Builder.const_i wb 2 in
            let c0 = Builder.const_i wb 0 in
            ignore
              (Builder.parallel wb Instr.Blocks [ nblocks ] (fun bb _ bivs ->
                   let bid = List.hd bivs in
                   let smem = Builder.alloc_shared bb f32 32 in
                   ignore
                     (Builder.parallel bb Instr.Threads [ c32 ] (fun tb tpid tivs ->
                          let tid = List.hd tivs in
                          let m = Builder.rem_ tb bid c2 in
                          let is_even = Builder.cmp tb Ops.Eq m c0 in
                          let fv = Builder.cast tb Types.F32 tid in
                          Builder.store tb smem tid fv;
                          (* barrier under block-dependent control flow *)
                          Builder.if0 tb is_even (fun ib -> Builder.barrier ib tpid);
                          let base = Builder.mul_ tb bid c32 in
                          let i = Builder.add_ tb base tid in
                          let v = Builder.load tb smem tid in
                          Builder.store tb dout i v)))));
        Builder.add b (Instr.Memcpy { dst = hout; src = dout; count = n });
        Builder.return b [ hout ])
  in
  { Instr.funcs = [ f ] }
