(** 1-D convolution with a shared-memory halo (HeCBench-style): each
    256-thread block stages its segment plus RADIUS cells on each side
    and applies a 2*RADIUS+1 tap filter. *)

module Bench_def = Pgpu_rodinia.Bench_def

let source =
  {|
#define BS 256
#define RADIUS 4

__global__ void conv1d(float* in, float* coeff, float* out, int n) {
  __shared__ float tile[264];
  int t = threadIdx.x;
  int i = blockIdx.x * BS + t;
  int lo = blockIdx.x * BS - RADIUS;
  int src = lo + t;
  if (src < 0) src = 0;
  if (src > n - 1) src = n - 1;
  tile[t] = in[src];
  if (t < 2 * RADIUS) {
    int src2 = lo + BS + t;
    if (src2 < 0) src2 = 0;
    if (src2 > n - 1) src2 = n - 1;
    tile[BS + t] = in[src2];
  }
  __syncthreads();
  if (i < n) {
    float acc = 0.0f;
    for (int k = 0; k < 2 * RADIUS + 1; k++) {
      acc += coeff[k] * tile[t + k];
    }
    out[i] = acc;
  }
}

float* main(int nblocks) {
  int n = nblocks * BS;
  int taps = 2 * RADIUS + 1;
  float* hin = (float*)malloc(n * sizeof(float));
  float* hco = (float*)malloc(taps * sizeof(float));
  float* hout = (float*)malloc(n * sizeof(float));
  fill_rand(hin, 261);
  fill_rand_range(hco, 262, -1.0f, 1.0f);
  float* din; float* dco; float* dout;
  cudaMalloc((void**)&din, n * sizeof(float));
  cudaMalloc((void**)&dco, taps * sizeof(float));
  cudaMalloc((void**)&dout, n * sizeof(float));
  cudaMemcpy(din, hin, n * sizeof(float), cudaMemcpyHostToDevice);
  cudaMemcpy(dco, hco, taps * sizeof(float), cudaMemcpyHostToDevice);
  conv1d<<<nblocks, BS>>>(din, dco, dout, n);
  cudaMemcpy(hout, dout, n * sizeof(float), cudaMemcpyDeviceToHost);
  return hout;
}
|}

let reference args =
  let nblocks = List.hd args in
  let radius = 4 in
  let n = nblocks * 256 in
  let input = Bench_def.rand_array 261 n in
  let coeff = Bench_def.rand_range 262 (-1.) 1. ((2 * radius) + 1) in
  Array.init n (fun i ->
      let acc = ref 0. in
      for k = 0 to 2 * radius do
        let src = i - radius + k in
        let src = Int.max 0 (Int.min (n - 1) src) in
        acc := !acc +. (coeff.(k) *. input.(src))
      done;
      !acc)

let bench : Bench_def.t =
  {
    name = "conv1d";
    description = "1-D convolution with shared-memory halo staging";
    source;
    args = [ 64 ];
    test_args = [ 5 ];
    perf_args = [ 1024 ];
    data_dependent_host = false;
    reference;
    tolerance = 1e-5;
    fp64 = false;
  }
