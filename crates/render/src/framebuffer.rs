//! RGB frame buffer.

use gbu_math::Vec3;

/// A linear-RGB frame buffer. The [`Default`] buffer is empty (0×0, no
/// pixels): what is left where an image has been moved out.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FrameBuffer {
    width: u32,
    height: u32,
    pixels: Vec<Vec3>,
}

impl FrameBuffer {
    /// Creates a buffer filled with `background`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: u32, height: u32, background: Vec3) -> Self {
        assert!(width > 0 && height > 0, "degenerate framebuffer size");
        Self { width, height, pixels: vec![background; (width * height) as usize] }
    }

    /// Buffer width in pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Buffer height in pixels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    #[inline]
    pub fn get(&self, x: u32, y: u32) -> Vec3 {
        assert!(x < self.width && y < self.height, "pixel ({x},{y}) out of bounds");
        self.pixels[(y * self.width + x) as usize]
    }

    /// Sets the pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    #[inline]
    pub fn set(&mut self, x: u32, y: u32, value: Vec3) {
        assert!(x < self.width && y < self.height, "pixel ({x},{y}) out of bounds");
        self.pixels[(y * self.width + x) as usize] = value;
    }

    /// All pixels in row-major order.
    pub fn pixels(&self) -> &[Vec3] {
        &self.pixels
    }

    /// Mutable access to all pixels in row-major order. The blending
    /// hot path partitions this into disjoint tile-row slices for the
    /// parallel workers.
    pub fn pixels_mut(&mut self) -> &mut [Vec3] {
        &mut self.pixels
    }

    /// Fills every pixel with `value`, reusing the allocation — the
    /// buffer-reuse counterpart of [`FrameBuffer::new`] for
    /// repeated-render loops.
    pub fn fill(&mut self, value: Vec3) {
        self.pixels.fill(value);
    }

    /// Mean value of all pixels (quick content check in tests).
    pub fn mean(&self) -> Vec3 {
        let sum: Vec3 = self.pixels.iter().copied().sum();
        sum / self.pixels.len() as f32
    }

    /// Maximum absolute per-channel difference against another buffer.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn max_abs_diff(&self, other: &FrameBuffer) -> f32 {
        assert_eq!(
            (self.width, self.height),
            (other.width, other.height),
            "framebuffer size mismatch"
        );
        self.pixels
            .iter()
            .zip(&other.pixels)
            .map(|(a, b)| (*a - *b).abs().max_component())
            .fold(0.0, f32::max)
    }

    /// Writes the buffer as a binary PPM (P6, 8-bit) byte vector — handy
    /// for eyeballing example outputs without an image dependency.
    pub fn to_ppm(&self) -> Vec<u8> {
        let mut out = format!("P6\n{} {}\n255\n", self.width, self.height).into_bytes();
        for p in &self.pixels {
            for c in [p.x, p.y, p.z] {
                out.push((c.clamp(0.0, 1.0) * 255.0).round() as u8);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_fills_background() {
        let fb = FrameBuffer::new(4, 3, Vec3::new(0.1, 0.2, 0.3));
        assert_eq!(fb.get(0, 0), Vec3::new(0.1, 0.2, 0.3));
        assert_eq!(fb.get(3, 2), Vec3::new(0.1, 0.2, 0.3));
        assert_eq!(fb.pixels().len(), 12);
    }

    #[test]
    fn set_get_round_trip() {
        let mut fb = FrameBuffer::new(4, 4, Vec3::ZERO);
        fb.set(2, 1, Vec3::ONE);
        assert_eq!(fb.get(2, 1), Vec3::ONE);
        assert_eq!(fb.get(1, 2), Vec3::ZERO);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_get_panics() {
        let fb = FrameBuffer::new(2, 2, Vec3::ZERO);
        let _ = fb.get(2, 0);
    }

    #[test]
    fn max_abs_diff_detects_changes() {
        let a = FrameBuffer::new(2, 2, Vec3::ZERO);
        let mut b = a.clone();
        assert_eq!(a.max_abs_diff(&b), 0.0);
        b.set(1, 1, Vec3::new(0.0, 0.5, 0.0));
        assert_eq!(a.max_abs_diff(&b), 0.5);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn diff_size_mismatch_panics() {
        let a = FrameBuffer::new(2, 2, Vec3::ZERO);
        let b = FrameBuffer::new(3, 2, Vec3::ZERO);
        let _ = a.max_abs_diff(&b);
    }

    #[test]
    fn ppm_header_and_size() {
        let fb = FrameBuffer::new(3, 2, Vec3::ONE);
        let ppm = fb.to_ppm();
        assert!(ppm.starts_with(b"P6\n3 2\n255\n"));
        assert_eq!(ppm.len(), 11 + 18);
        assert_eq!(*ppm.last().unwrap(), 255);
    }

    #[test]
    fn mean_averages() {
        let mut fb = FrameBuffer::new(2, 1, Vec3::ZERO);
        fb.set(0, 0, Vec3::ONE);
        assert_eq!(fb.mean(), Vec3::splat(0.5));
    }
}
