//! DA/AD interfaces of the AMC macro (paper Fig. 2: "The DA/AD interfaces
//! bridge the analog and digital domains, so that we can develop a hybrid
//! design").

/// A uniform mid-tread digital-to-analog converter over `±v_ref`.
///
/// # Examples
///
/// ```
/// use gramc_core::Dac;
///
/// let dac = Dac::new(8, 0.2);
/// // Full-scale code maps to v_ref.
/// assert!((dac.convert(1.0) - 0.2).abs() < 1e-12);
/// // Quantization error is bounded by half an LSB.
/// let v = dac.convert(0.3337);
/// assert!((v - 0.3337 * 0.2).abs() <= dac.lsb_volts() / 2.0 + 1e-15);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dac {
    bits: u32,
    v_ref: f64,
}

impl Dac {
    /// Creates an `bits`-bit DAC with full scale `±v_ref` volts.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `1..=16` or `v_ref <= 0`.
    pub fn new(bits: u32, v_ref: f64) -> Self {
        assert!((1..=16).contains(&bits), "DAC bits must be in 1..=16");
        assert!(v_ref > 0.0, "v_ref must be positive");
        Self { bits, v_ref }
    }

    /// Resolution in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Full-scale voltage.
    pub fn v_ref(&self) -> f64 {
        self.v_ref
    }

    /// Size of one least-significant bit in volts.
    pub fn lsb_volts(&self) -> f64 {
        self.v_ref / self.max_code() as f64
    }

    fn max_code(&self) -> i64 {
        (1i64 << (self.bits - 1)) - 1
    }

    /// Converts a normalized digital value in `[-1, 1]` to an output voltage
    /// (values outside the range clip to full scale).
    #[inline]
    pub fn convert(&self, normalized: f64) -> f64 {
        let m = self.max_code() as f64;
        let code = (normalized * m).round().clamp(-m, m);
        code / m * self.v_ref
    }

    /// Converts a whole vector.
    pub fn convert_vec(&self, normalized: &[f64]) -> Vec<f64> {
        normalized.iter().map(|&x| self.convert(x)).collect()
    }
}

/// A uniform mid-tread analog-to-digital converter over `±v_ref`.
///
/// # Examples
///
/// ```
/// use gramc_core::Adc;
///
/// let adc = Adc::new(10, 1.2);
/// let x = adc.convert(0.6);
/// assert!((x - 0.5).abs() < 1e-3);
/// assert_eq!(adc.convert(5.0), 1.0); // clips at full scale
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Adc {
    bits: u32,
    v_ref: f64,
}

impl Adc {
    /// Creates an `bits`-bit ADC with input range `±v_ref` volts.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `1..=24` or `v_ref <= 0`.
    pub fn new(bits: u32, v_ref: f64) -> Self {
        assert!((1..=24).contains(&bits), "ADC bits must be in 1..=24");
        assert!(v_ref > 0.0, "v_ref must be positive");
        Self { bits, v_ref }
    }

    /// Resolution in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Input range.
    pub fn v_ref(&self) -> f64 {
        self.v_ref
    }

    /// Size of one least-significant bit in normalized units.
    pub fn lsb(&self) -> f64 {
        1.0 / self.max_code() as f64
    }

    fn max_code(&self) -> i64 {
        (1i64 << (self.bits - 1)) - 1
    }

    /// Converts a voltage to a normalized digital value in `[-1, 1]`
    /// (clipping outside `±v_ref`).
    #[inline]
    pub fn convert(&self, volts: f64) -> f64 {
        let m = self.max_code() as f64;
        let code = (volts / self.v_ref * m).round().clamp(-m, m);
        code / m
    }

    /// Converts a whole vector.
    pub fn convert_vec(&self, volts: &[f64]) -> Vec<f64> {
        volts.iter().map(|&v| self.convert(v)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dac_quantization_bounded_by_half_lsb() {
        let dac = Dac::new(8, 0.2);
        for k in 0..100 {
            let x = -1.0 + 2.0 * k as f64 / 99.0;
            let v = dac.convert(x);
            assert!((v - x * 0.2).abs() <= dac.lsb_volts() / 2.0 + 1e-15, "x={x}");
        }
    }

    #[test]
    fn dac_clips_out_of_range() {
        let dac = Dac::new(6, 1.0);
        assert_eq!(dac.convert(3.0), 1.0);
        assert_eq!(dac.convert(-3.0), -1.0);
    }

    #[test]
    fn dac_is_monotone() {
        let dac = Dac::new(4, 1.0);
        let mut last = f64::NEG_INFINITY;
        for k in 0..200 {
            let v = dac.convert(-1.0 + k as f64 / 100.0);
            assert!(v >= last);
            last = v;
        }
    }

    #[test]
    fn adc_roundtrips_dac_codes() {
        // Same resolution, same range: DAC codes must be ADC fixed points.
        let dac = Dac::new(8, 1.0);
        let adc = Adc::new(8, 1.0);
        for k in [-127i32, -64, -1, 0, 1, 77, 127] {
            let x = k as f64 / 127.0;
            let v = dac.convert(x);
            assert!((adc.convert(v) - x).abs() < 1e-12);
        }
    }

    #[test]
    fn adc_error_shrinks_with_bits() {
        let coarse = Adc::new(4, 1.0);
        let fine = Adc::new(12, 1.0);
        let v = 0.123_456;
        assert!((fine.convert(v) - v).abs() < (coarse.convert(v) - v).abs());
    }

    #[test]
    fn zero_maps_to_zero() {
        // Mid-tread: zero is always an exact code.
        assert_eq!(Dac::new(5, 0.7).convert(0.0), 0.0);
        assert_eq!(Adc::new(5, 0.7).convert(0.0), 0.0);
    }

    #[test]
    fn vector_conversion_matches_scalar() {
        let adc = Adc::new(6, 1.0);
        let vs = [0.1, -0.5, 0.9];
        let out = adc.convert_vec(&vs);
        for (o, v) in out.iter().zip(&vs) {
            assert_eq!(*o, adc.convert(*v));
        }
    }

    #[test]
    #[should_panic(expected = "bits")]
    fn dac_rejects_zero_bits() {
        let _ = Dac::new(0, 1.0);
    }
}
