(** Molecular dynamics (Rodinia lavaMD), double precision: particles
    live in boxes; each block processes one home box and loops over
    its neighbour boxes, staging the neighbour particles in shared
    memory. The innermost pair loop is dominated by [exp] and loads
    whose invariant parts Polygeist's LICM hoists — the Section VII-C
    lavaMD speedup. *)

let source =
  {|
#define PPB 64

__global__ void lavamd_kernel(double* px, double* py, double* pz, double* q,
                              double* fx, int nboxes, double a2) {
  __shared__ double hx[64];
  __shared__ double hy[64];
  __shared__ double hz[64];
  __shared__ double sx[64];
  __shared__ double sy[64];
  __shared__ double sz[64];
  __shared__ double sq[64];
  int b = blockIdx.x;
  int t = threadIdx.x;
  hx[t] = px[b * PPB + t];
  hy[t] = py[b * PPB + t];
  hz[t] = pz[b * PPB + t];
  __syncthreads();
  double acc = 0.0;
  for (int nn = 0; nn < 3; nn++) {
    int nbx = b + nn - 1;
    if (nbx < 0) nbx = 0;
    if (nbx > nboxes - 1) nbx = nboxes - 1;
    sx[t] = px[nbx * PPB + t];
    sy[t] = py[nbx * PPB + t];
    sz[t] = pz[nbx * PPB + t];
    sq[t] = q[nbx * PPB + t];
    __syncthreads();
    for (int j = 0; j < PPB; j++) {
      double dx = hx[t] - sx[j];
      double dy = hy[t] - sy[j];
      double dz = hz[t] - sz[j];
      double r2 = dx * dx + dy * dy + dz * dz;
      double u2 = a2 * r2;
      double vij = exp(-u2);
      double fs = 2.0 * vij;
      acc += sq[j] * fs * (dx + dy + dz);
    }
    __syncthreads();
  }
  fx[b * PPB + t] = acc;
}

float* main(int nboxes) {
  int n = nboxes * PPB;
  double* hx = (double*)malloc(n * sizeof(double));
  double* hy = (double*)malloc(n * sizeof(double));
  double* hz = (double*)malloc(n * sizeof(double));
  double* hq = (double*)malloc(n * sizeof(double));
  double* hf = (double*)malloc(n * sizeof(double));
  fill_rand(hx, 131);
  fill_rand(hy, 132);
  fill_rand(hz, 133);
  fill_rand_range(hq, 134, -1.0f, 1.0f);
  double* dx; double* dy; double* dz; double* dq; double* df;
  cudaMalloc((void**)&dx, n * sizeof(double));
  cudaMalloc((void**)&dy, n * sizeof(double));
  cudaMalloc((void**)&dz, n * sizeof(double));
  cudaMalloc((void**)&dq, n * sizeof(double));
  cudaMalloc((void**)&df, n * sizeof(double));
  cudaMemcpy(dx, hx, n * sizeof(double), cudaMemcpyHostToDevice);
  cudaMemcpy(dy, hy, n * sizeof(double), cudaMemcpyHostToDevice);
  cudaMemcpy(dz, hz, n * sizeof(double), cudaMemcpyHostToDevice);
  cudaMemcpy(dq, hq, n * sizeof(double), cudaMemcpyHostToDevice);
  lavamd_kernel<<<nboxes, PPB>>>(dx, dy, dz, dq, df, nboxes, 0.5);
  cudaMemcpy(hf, df, n * sizeof(double), cudaMemcpyDeviceToHost);
  return hf;
}
|}

let reference args =
  let nboxes = List.hd args in
  let ppb = 64 in
  let n = nboxes * ppb in
  let x = Bench_def.rand_array 131 n in
  let y = Bench_def.rand_array 132 n in
  let z = Bench_def.rand_array 133 n in
  let q = Bench_def.rand_range 134 (-1.) 1. n in
  let a2 = 0.5 in
  Array.init n (fun i ->
      let b = i / ppb in
      let xi = x.(i) and yi = y.(i) and zi = z.(i) in
      let acc = ref 0. in
      for nn = 0 to 2 do
        let nbx = Int.max 0 (Int.min (nboxes - 1) (b + nn - 1)) in
        for j = 0 to ppb - 1 do
          let k = (nbx * ppb) + j in
          let dx = xi -. x.(k) and dy = yi -. y.(k) and dz = zi -. z.(k) in
          let r2 = (dx *. dx) +. (dy *. dy) +. (dz *. dz) in
          let vij = exp (-.(a2 *. r2)) in
          acc := !acc +. (q.(k) *. 2. *. vij *. (dx +. dy +. dz))
        done
      done;
      !acc)

let bench : Bench_def.t =
  {
    name = "lavaMD";
    description = "boxed N-body forces, double precision, shared-memory neighbour staging";
    args = [ 96 ];
    test_args = [ 6 ];
    perf_args = [ 512 ];
    data_dependent_host = false;
    source;
    reference;
    tolerance = 1e-9;
    fp64 = true;
  }
