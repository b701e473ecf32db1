//! The benchmark's reference kernel: a fixed yardstick of host speed.
//!
//! The benchmark runs on a few cores of a shared host whose speed moves
//! by tens of percent over minutes, with the load of its other tenants.
//! The timed loop measures this kernel beside its jobs and reports job
//! times in units of it, so a change of host speed cancels out while a
//! change of the program does not. The kernel is written here, not taken
//! from lsopc, so no change to the program can move it. It has two parts,
//! each run on every lane and ended when every lane is done, as a pooled
//! job is: a complex 512 × 512 f64 FFT (rows, then columns, radix 2), a
//! 4 MiB working set per lane like the program's band FFTs, which slows
//! when a core is shared; and sweeps over an 8 MiB array, which slow when
//! the shared cache and memory are busy. A job slows with both, so the
//! reference time is the geometric mean of the two.

use std::time::Instant;

/// Grid side of one lane's transform.
const N: usize = 512;
/// Elements of one lane's swept array (8 MiB of f64), and sweeps over it.
const SWEEP_LEN: usize = 1 << 20;
const SWEEPS: usize = 12;

/// In-place radix-2 DIT FFT of the `n` points `re/im[k * stride]`.
fn fft_1d(re: &mut [f64], im: &mut [f64], n: usize, stride: usize) {
    let mut j = 0;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            re.swap(i * stride, j * stride);
            im.swap(i * stride, j * stride);
        }
    }
    let mut len = 2;
    while len <= n {
        let angle = -2.0 * std::f64::consts::PI / len as f64;
        for start in (0..n).step_by(len) {
            for k in 0..len / 2 {
                let (s, c) = (angle * k as f64).sin_cos();
                let a = (start + k) * stride;
                let b = (start + k + len / 2) * stride;
                let tr = re[b] * c - im[b] * s;
                let ti = re[b] * s + im[b] * c;
                re[b] = re[a] - tr;
                im[b] = im[a] - ti;
                re[a] += tr;
                im[a] += ti;
            }
        }
        len <<= 1;
    }
}

/// One lane's buffers.
struct Lane {
    re: Vec<f64>,
    im: Vec<f64>,
    swept: Vec<f64>,
}

/// The reference's buffers, one set per lane. They are allocated and
/// touched once, so passes neither allocate nor move the process's
/// resident memory; peak memory counts them as a fixed amount.
pub struct Reference {
    lanes: Vec<Lane>,
}

/// One lane's share of the FFT part; returns a value the caller keeps
/// alive.
fn fft_2d(lane: &mut Lane) -> f64 {
    let Lane { re, im, .. } = lane;
    for (i, (r, m)) in re.iter_mut().zip(im.iter_mut()).enumerate() {
        *r = ((i * 7919) % 1013) as f64;
        *m = 0.0;
    }
    for (r, i) in re.chunks_mut(N).zip(im.chunks_mut(N)) {
        fft_1d(r, i, N, 1);
    }
    for c in 0..N {
        fft_1d(&mut re[c..], &mut im[c..], N, N);
    }
    re[1] + im[2]
}

/// One lane's share of the memory part.
fn sweep(lane: &mut Lane) -> f64 {
    let v = &mut lane.swept;
    for (i, x) in v.iter_mut().enumerate() {
        *x = i as f64;
    }
    for _ in 0..SWEEPS {
        for x in v.iter_mut() {
            *x = *x * 0.999 + 1.0;
        }
    }
    v[7]
}

impl Reference {
    /// Buffers for `lanes` threads.
    pub fn new(lanes: usize) -> Reference {
        let lanes = (0..lanes.max(1))
            .map(|_| Lane {
                re: vec![1.0; N * N],
                im: vec![1.0; N * N],
                swept: vec![1.0; SWEEP_LEN],
            })
            .collect();
        Reference { lanes }
    }

    /// Memory the buffers hold, in MiB.
    pub fn resident_mib(&self) -> f64 {
        let per_lane = (2 * N * N + SWEEP_LEN) * std::mem::size_of::<f64>();
        (self.lanes.len() * per_lane) as f64 / (1024.0 * 1024.0)
    }

    /// Wall time of `work` on every lane at once, in seconds.
    fn pass_s(&mut self, work: fn(&mut Lane) -> f64) -> f64 {
        let t = Instant::now();
        let sum: f64 = std::thread::scope(|scope| {
            let workers: Vec<_> = self
                .lanes
                .iter_mut()
                .map(|lane| scope.spawn(move || work(lane)))
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("reference pass panicked"))
                .sum()
        });
        std::hint::black_box(sum);
        t.elapsed().as_secs_f64()
    }

    /// Median wall time of `passes` passes of `work` in a row, in seconds.
    fn median_s(&mut self, passes: usize, work: fn(&mut Lane) -> f64) -> f64 {
        let mut times: Vec<f64> = (0..passes.max(1)).map(|_| self.pass_s(work)).collect();
        times.sort_by(f64::total_cmp);
        times[times.len() / 2]
    }

    /// The reference time, in seconds: the geometric mean of the median
    /// of `passes` FFT passes and of `passes` sweep passes.
    pub fn time_s(&mut self, passes: usize) -> f64 {
        (self.median_s(passes, fft_2d) * self.median_s(passes, sweep)).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fft_of_an_impulse_is_flat() {
        let n = 8;
        let mut re = vec![0.0; n];
        let mut im = vec![0.0; n];
        re[0] = 1.0;
        fft_1d(&mut re, &mut im, n, 1);
        assert!(re.iter().all(|&x| (x - 1.0).abs() < 1e-12));
        assert!(im.iter().all(|&x| x.abs() < 1e-12));
    }

    #[test]
    fn fft_finds_a_single_tone() {
        let n = 16;
        let mut re: Vec<f64> = (0..n)
            .map(|k| (2.0 * std::f64::consts::PI * 3.0 * k as f64 / n as f64).cos())
            .collect();
        let mut im = vec![0.0; n];
        fft_1d(&mut re, &mut im, n, 1);
        for (k, (r, i)) in re.iter().zip(&im).enumerate() {
            let expected = if k == 3 || k == n - 3 {
                n as f64 / 2.0
            } else {
                0.0
            };
            assert!((r - expected).abs() < 1e-9 && i.abs() < 1e-9, "bin {k}");
        }
    }

    #[test]
    fn a_pass_takes_time_and_holds_fixed_memory() {
        let mut reference = Reference::new(2);
        assert!(reference.time_s(1) > 0.0);
        assert_eq!(reference.resident_mib(), 24.0);
    }
}
