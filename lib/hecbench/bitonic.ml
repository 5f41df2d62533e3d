(** In-block bitonic sort (HeCBench-style): each 256-thread block sorts
    its 256-element segment in shared memory. Nine barrier-separated
    stage loops with XOR-partner indexing — the densest barrier
    structure in the suite, and a stress test for the coarsening
    legality machinery. *)

module Bench_def = Pgpu_rodinia.Bench_def

let source =
  {|
#define BS 256

__global__ void bitonic(float* data, int n) {
  __shared__ float sm[256];
  int t = threadIdx.x;
  int base = blockIdx.x * BS;
  sm[t] = data[base + t];
  __syncthreads();
  for (int kk = 1; kk < 9; kk++) {
    int k = 1 << kk;
    for (int jj = 0; jj < kk; jj++) {
      int j = k >> (jj + 1);
      int ixj = t ^ j;
      if (ixj > t) {
        float a = sm[t];
        float b = sm[ixj];
        int up = (t & k) == 0;
        if (up ? a > b : a < b) {
          sm[t] = b;
          sm[ixj] = a;
        }
      }
      __syncthreads();
    }
  }
  data[base + t] = sm[t];
}

float* main(int nblocks) {
  int n = nblocks * BS;
  float* h = (float*)malloc(n * sizeof(float));
  fill_rand(h, 271);
  float* d;
  cudaMalloc((void**)&d, n * sizeof(float));
  cudaMemcpy(d, h, n * sizeof(float), cudaMemcpyHostToDevice);
  bitonic<<<nblocks, BS>>>(d, n);
  cudaMemcpy(h, d, n * sizeof(float), cudaMemcpyDeviceToHost);
  return h;
}
|}

let reference args =
  let nblocks = List.hd args in
  let n = nblocks * 256 in
  let data = Bench_def.rand_array 271 n in
  for b = 0 to nblocks - 1 do
    let seg = Array.sub data (b * 256) 256 in
    Array.sort Float.compare seg;
    Array.blit seg 0 data (b * 256) 256
  done;
  data

let bench : Bench_def.t =
  {
    name = "bitonic";
    description = "per-block bitonic sort (barrier-dense, XOR partners)";
    source;
    args = [ 32 ];
    test_args = [ 4 ];
    perf_args = [ 512 ];
    data_dependent_host = false;
    reference;
    tolerance = 0.;
    fp64 = false;
  }
