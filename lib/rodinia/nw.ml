(** Needleman-Wunsch sequence alignment (Rodinia nw).

    The Section VII-D2 case study: 16-thread blocks allocating 2180
    bytes of shared memory each (a 17x17 int wavefront tile plus a
    16x16 int reference tile) — 136 bytes per thread, far above
    typical GPU workloads. On AMD targets with 16 KB L1 caches the
    backend demotes this shared memory to global memory to preserve
    occupancy. Two kernels sweep the anti-diagonals of the score
    matrix, tile by tile. *)

let source =
  {|
#define BS 16
#define PEN 10

__global__ void nw1(int* ref, int* data, int cols, int blk) {
  __shared__ int temp[17][17];
  __shared__ int sref[16][16];
  int bx = blockIdx.x;
  int tx = threadIdx.x;
  int b_x = bx;
  int b_y = blk - 1 - bx;
  int base = cols * BS * b_y + BS * b_x;
  for (int ty = 0; ty < BS; ty++) {
    sref[ty][tx] = ref[base + cols * (ty + 1) + tx + 1];
  }
  if (tx == 0) {
    temp[0][0] = data[base];
  }
  temp[tx + 1][0] = data[base + cols * (tx + 1)];
  temp[0][tx + 1] = data[base + tx + 1];
  __syncthreads();
  for (int m = 0; m < BS; m++) {
    if (tx <= m) {
      int xx = tx + 1;
      int yy = m - tx + 1;
      temp[yy][xx] = max(temp[yy - 1][xx - 1] + sref[yy - 1][xx - 1],
                         max(temp[yy][xx - 1] - PEN, temp[yy - 1][xx] - PEN));
    }
    __syncthreads();
  }
  for (int mm = 0; mm < BS - 1; mm++) {
    int m = BS - 2 - mm;
    if (tx <= m) {
      int xx = tx + BS - m;
      int yy = BS - tx;
      temp[yy][xx] = max(temp[yy - 1][xx - 1] + sref[yy - 1][xx - 1],
                         max(temp[yy][xx - 1] - PEN, temp[yy - 1][xx] - PEN));
    }
    __syncthreads();
  }
  for (int ty = 0; ty < BS; ty++) {
    data[base + cols * (ty + 1) + tx + 1] = temp[ty + 1][tx + 1];
  }
}

__global__ void nw2(int* ref, int* data, int cols, int blk, int nb) {
  __shared__ int temp[17][17];
  __shared__ int sref[16][16];
  int bx = blockIdx.x;
  int tx = threadIdx.x;
  int b_x = bx + nb - blk;
  int b_y = nb - 1 - bx;
  int base = cols * BS * b_y + BS * b_x;
  for (int ty = 0; ty < BS; ty++) {
    sref[ty][tx] = ref[base + cols * (ty + 1) + tx + 1];
  }
  if (tx == 0) {
    temp[0][0] = data[base];
  }
  temp[tx + 1][0] = data[base + cols * (tx + 1)];
  temp[0][tx + 1] = data[base + tx + 1];
  __syncthreads();
  for (int m = 0; m < BS; m++) {
    if (tx <= m) {
      int xx = tx + 1;
      int yy = m - tx + 1;
      temp[yy][xx] = max(temp[yy - 1][xx - 1] + sref[yy - 1][xx - 1],
                         max(temp[yy][xx - 1] - PEN, temp[yy - 1][xx] - PEN));
    }
    __syncthreads();
  }
  for (int mm = 0; mm < BS - 1; mm++) {
    int m = BS - 2 - mm;
    if (tx <= m) {
      int xx = tx + BS - m;
      int yy = BS - tx;
      temp[yy][xx] = max(temp[yy - 1][xx - 1] + sref[yy - 1][xx - 1],
                         max(temp[yy][xx - 1] - PEN, temp[yy - 1][xx] - PEN));
    }
    __syncthreads();
  }
  for (int ty = 0; ty < BS; ty++) {
    data[base + cols * (ty + 1) + tx + 1] = temp[ty + 1][tx + 1];
  }
}

float* main(int nb) {
  int cols = nb * BS + 1;
  int* href = (int*)malloc(cols * cols * sizeof(int));
  int* hdata = (int*)malloc(cols * cols * sizeof(int));
  fill_int_rand(href, 41, 20);
  for (int k = 0; k < cols * cols; k++) {
    href[k] = href[k] - 10;
  }
  fill_const(hdata, 0);
  for (int i = 1; i < cols; i++) {
    hdata[i * cols] = -(i * PEN);
    hdata[i] = -(i * PEN);
  }
  int* dref; int* ddata;
  cudaMalloc((void**)&dref, cols * cols * sizeof(int));
  cudaMalloc((void**)&ddata, cols * cols * sizeof(int));
  cudaMemcpy(dref, href, cols * cols * sizeof(int), cudaMemcpyHostToDevice);
  cudaMemcpy(ddata, hdata, cols * cols * sizeof(int), cudaMemcpyHostToDevice);
  for (int blk = 1; blk <= nb; blk++) {
    nw1<<<blk, BS>>>(dref, ddata, cols, blk);
  }
  for (int bi = 0; bi < nb - 1; bi++) {
    int blk = nb - 1 - bi;
    nw2<<<blk, BS>>>(dref, ddata, cols, blk, nb);
  }
  cudaMemcpy(hdata, ddata, cols * cols * sizeof(int), cudaMemcpyDeviceToHost);
  float* out = (float*)malloc(cols * cols * sizeof(float));
  for (int k = 0; k < cols * cols; k++) {
    out[k] = (float)hdata[k];
  }
  return out;
}
|}

let reference args =
  let nb = List.hd args in
  let pen = 10 in
  let cols = (nb * 16) + 1 in
  let refm = Array.map (fun r -> r - 10) (Bench_def.rand_int_array 41 20 (cols * cols)) in
  let data = Array.make (cols * cols) 0 in
  for i = 1 to cols - 1 do
    data.(i * cols) <- -(i * pen);
    data.(i) <- -(i * pen)
  done;
  for y = 1 to cols - 1 do
    for x = 1 to cols - 1 do
      let d = data.(((y - 1) * cols) + x - 1) + refm.((y * cols) + x) in
      let l = data.((y * cols) + x - 1) - pen in
      let u = data.(((y - 1) * cols) + x) - pen in
      data.((y * cols) + x) <- Int.max d (Int.max l u)
    done
  done;
  Array.map float_of_int data

let bench : Bench_def.t =
  {
    name = "nw";
    description = "Needleman-Wunsch wavefront DP (16-thread blocks, 2180 B shared/block)";
    source;
    args = [ 12 ];
    test_args = [ 3 ];
    perf_args = [ 32 ];
    data_dependent_host = false;
    reference;
    tolerance = 0.;
    fp64 = false;
  }
