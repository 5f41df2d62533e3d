(** Dynamic programming path search (Rodinia pathfinder): row-by-row
    sweep where each cell adds the minimum of its three upper
    neighbours; the previous row is staged in shared memory with a
    one-cell halo. Buffers ping-pong across rows on the host. *)

let source =
  {|
#define BS 256

__global__ void pathfinder_step(int* wall, int* src, int* dst, int cols, int row) {
  __shared__ int prev[258];
  int tx = threadIdx.x;
  int x = blockIdx.x * BS + tx;
  if (x < cols) {
    prev[tx + 1] = src[x];
  }
  if (tx == 0) {
    int xl = blockIdx.x * BS - 1;
    if (xl < 0) xl = 0;
    prev[0] = src[xl];
  }
  if (tx == BS - 1) {
    int xr = blockIdx.x * BS + BS;
    if (xr > cols - 1) xr = cols - 1;
    prev[257] = src[xr];
  }
  __syncthreads();
  if (x < cols) {
    int left = x == 0 ? prev[1] : prev[tx];
    int up = prev[tx + 1];
    int right = x == cols - 1 ? prev[tx + 1] : prev[tx + 2];
    int m = min(left, min(up, right));
    dst[x] = wall[row * cols + x] + m;
  }
}

float* main(int cols, int rows) {
  int* hwall = (int*)malloc(cols * rows * sizeof(int));
  int* hout = (int*)malloc(cols * sizeof(int));
  fill_int_rand(hwall, 71, 10);
  int* dwall; int* d0; int* d1;
  cudaMalloc((void**)&dwall, cols * rows * sizeof(int));
  cudaMalloc((void**)&d0, cols * sizeof(int));
  cudaMalloc((void**)&d1, cols * sizeof(int));
  cudaMemcpy(dwall, hwall, cols * rows * sizeof(int), cudaMemcpyHostToDevice);
  for (int k = 0; k < cols; k++) {
    hout[k] = hwall[k];
  }
  cudaMemcpy(d0, hout, cols * sizeof(int), cudaMemcpyHostToDevice);
  int grid = (cols + BS - 1) / BS;
  for (int row = 1; row < rows; row++) {
    if (row % 2 == 1) {
      pathfinder_step<<<grid, BS>>>(dwall, d0, d1, cols, row);
    } else {
      pathfinder_step<<<grid, BS>>>(dwall, d1, d0, cols, row);
    }
  }
  if (rows % 2 == 1) {
    cudaMemcpy(hout, d0, cols * sizeof(int), cudaMemcpyDeviceToHost);
  } else {
    cudaMemcpy(hout, d1, cols * sizeof(int), cudaMemcpyDeviceToHost);
  }
  float* out = (float*)malloc(cols * sizeof(float));
  for (int k = 0; k < cols; k++) {
    out[k] = (float)hout[k];
  }
  return out;
}
|}

let reference args =
  match args with
  | [ cols; rows ] ->
      let wall = Bench_def.rand_int_array 71 10 (cols * rows) in
      let cur = ref (Array.init cols (fun x -> wall.(x))) in
      for row = 1 to rows - 1 do
        let src = !cur in
        let dst =
          Array.init cols (fun x ->
              let left = if x = 0 then src.(0) else src.(x - 1) in
              let up = src.(x) in
              let right = if x = cols - 1 then src.(x) else src.(x + 1) in
              wall.((row * cols) + x) + Int.min left (Int.min up right))
        in
        cur := dst
      done;
      Array.map float_of_int !cur
  | _ -> invalid_arg "pathfinder expects [cols; rows]"

let bench : Bench_def.t =
  {
    name = "pathfinder";
    description = "grid DP sweep with shared-memory row staging";
    args = [ 8192; 64 ];
    test_args = [ 600; 12 ];
    perf_args = [ 65536; 128 ];
    data_dependent_host = false;
    source;
    reference;
    tolerance = 0.;
    fp64 = false;
  }
