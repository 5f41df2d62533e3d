(** Thermal simulation (Rodinia hotspot): iterative 2-D five-point
    stencil over the chip temperature grid, tiled through shared
    memory with a one-cell halo (18x18 f32 tile per 16x16 block).
    Buffers ping-pong across iterations via a host conditional. *)

let source =
  {|
#define BS 16

__global__ void hotspot_step(float* tin, float* pwr, float* tout, int n,
                             float cap, float rx, float ry, float rz, float amb) {
  __shared__ float tile[18][18];
  int tx = threadIdx.x;
  int ty = threadIdx.y;
  int gx = blockIdx.x * BS + tx;
  int gy = blockIdx.y * BS + ty;
  tile[ty + 1][tx + 1] = tin[gy * n + gx];
  if (tx == 0) {
    int xx = gx - 1;
    if (xx < 0) xx = 0;
    tile[ty + 1][0] = tin[gy * n + xx];
  }
  if (tx == BS - 1) {
    int xx = gx + 1;
    if (xx > n - 1) xx = n - 1;
    tile[ty + 1][17] = tin[gy * n + xx];
  }
  if (ty == 0) {
    int yy = gy - 1;
    if (yy < 0) yy = 0;
    tile[0][tx + 1] = tin[yy * n + gx];
  }
  if (ty == BS - 1) {
    int yy = gy + 1;
    if (yy > n - 1) yy = n - 1;
    tile[17][tx + 1] = tin[yy * n + gx];
  }
  __syncthreads();
  float c = tile[ty + 1][tx + 1];
  float delta = cap * (pwr[gy * n + gx]
                       + (tile[ty + 2][tx + 1] + tile[ty][tx + 1] - 2.0f * c) * ry
                       + (tile[ty + 1][tx + 2] + tile[ty + 1][tx] - 2.0f * c) * rx
                       + (amb - c) * rz);
  tout[gy * n + gx] = c + delta;
}

float* main(int nt, int iters) {
  int n = nt * BS;
  float* ht = (float*)malloc(n * n * sizeof(float));
  float* hp = (float*)malloc(n * n * sizeof(float));
  fill_rand_range(ht, 51, 323.0f, 341.0f);
  fill_rand_range(hp, 52, 0.0f, 1.0f);
  float* d0; float* d1; float* dp;
  cudaMalloc((void**)&d0, n * n * sizeof(float));
  cudaMalloc((void**)&d1, n * n * sizeof(float));
  cudaMalloc((void**)&dp, n * n * sizeof(float));
  cudaMemcpy(d0, ht, n * n * sizeof(float), cudaMemcpyHostToDevice);
  cudaMemcpy(dp, hp, n * n * sizeof(float), cudaMemcpyHostToDevice);
  dim3 grid(nt, nt);
  dim3 blk(BS, BS);
  for (int it = 0; it < iters; it++) {
    if (it % 2 == 0) {
      hotspot_step<<<grid, blk>>>(d0, dp, d1, n, 0.5f, 0.1f, 0.1f, 0.0001f, 80.0f);
    } else {
      hotspot_step<<<grid, blk>>>(d1, dp, d0, n, 0.5f, 0.1f, 0.1f, 0.0001f, 80.0f);
    }
  }
  if (iters % 2 == 0) {
    cudaMemcpy(ht, d0, n * n * sizeof(float), cudaMemcpyDeviceToHost);
  } else {
    cudaMemcpy(ht, d1, n * n * sizeof(float), cudaMemcpyDeviceToHost);
  }
  return ht;
}
|}

let reference args =
  match args with
  | [ nt; iters ] ->
      let n = nt * 16 in
      let t = ref (Bench_def.rand_range 51 323. 341. (n * n)) in
      let p = Bench_def.rand_range 52 0. 1. (n * n) in
      let cap = 0.5 and rx = 0.1 and ry = 0.1 and rz = 0.0001 and amb = 80. in
      for _ = 1 to iters do
        let src = !t in
        let dst = Array.make (n * n) 0. in
        for gy = 0 to n - 1 do
          for gx = 0 to n - 1 do
            let at y x =
              let y = Int.max 0 (Int.min (n - 1) y) and x = Int.max 0 (Int.min (n - 1) x) in
              src.((y * n) + x)
            in
            let c = src.((gy * n) + gx) in
            let delta =
              cap
              *. (p.((gy * n) + gx)
                 +. ((at (gy + 1) gx +. at (gy - 1) gx -. (2. *. c)) *. ry)
                 +. ((at gy (gx + 1) +. at gy (gx - 1) -. (2. *. c)) *. rx)
                 +. ((amb -. c) *. rz))
            in
            dst.((gy * n) + gx) <- c +. delta
          done
        done;
        t := dst
      done;
      !t
  | _ -> invalid_arg "hotspot expects [nt; iters]"

let bench : Bench_def.t =
  {
    name = "hotspot";
    description = "2-D thermal stencil, shared-memory tiles with halo";
    args = [ 16; 8 ];
    test_args = [ 3; 3 ];
    perf_args = [ 64; 16 ];
    data_dependent_host = false;
    source;
    reference;
    tolerance = 1e-4;
    fp64 = false;
  }
