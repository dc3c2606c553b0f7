//! PID controller primitive used throughout the control cascade.

/// A PID controller with output limiting and anti-windup.
#[derive(Debug, Clone)]
pub struct Pid {
    /// Proportional gain.
    pub kp: f64,
    /// Integral gain.
    pub ki: f64,
    /// Derivative gain.
    pub kd: f64,
    /// Symmetric output limit.
    pub out_limit: f64,
    /// Symmetric integrator limit (anti-windup).
    pub int_limit: f64,
    integ: f64,
    last_err: Option<f64>,
}

impl Pid {
    /// Creates a PID with the given gains and limits.
    pub fn new(kp: f64, ki: f64, kd: f64, out_limit: f64, int_limit: f64) -> Self {
        Pid {
            kp,
            ki,
            kd,
            out_limit,
            int_limit,
            integ: 0.0,
            last_err: None,
        }
    }

    /// Updates with error `err` over timestep `dt`, returning the
    /// limited output.
    pub fn update(&mut self, err: f64, dt: f64) -> f64 {
        if dt <= 0.0 {
            return 0.0;
        }
        self.integ = (self.integ + err * dt).clamp(-self.int_limit, self.int_limit);
        let deriv = match self.last_err {
            Some(last) => (err - last) / dt,
            None => 0.0,
        };
        self.last_err = Some(err);
        (self.kp * err + self.ki * self.integ + self.kd * deriv)
            .clamp(-self.out_limit, self.out_limit)
    }

    /// Clears the integrator and derivative history (mode changes,
    /// landing).
    pub fn reset(&mut self) {
        self.integ = 0.0;
        self.last_err = None;
    }
}

impl androne_simkern::StateHash for Pid {
    fn state_hash(&self, h: &mut androne_simkern::StateHasher) {
        h.write_f64(self.kp);
        h.write_f64(self.ki);
        h.write_f64(self.kd);
        h.write_f64(self.out_limit);
        h.write_f64(self.int_limit);
        h.write_f64(self.integ);
        match self.last_err {
            Some(e) => {
                h.write_u8(1);
                h.write_f64(e);
            }
            None => h.write_u8(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proportional_action() {
        let mut pid = Pid::new(2.0, 0.0, 0.0, 10.0, 0.0);
        assert_eq!(pid.update(3.0, 0.01), 6.0);
    }

    #[test]
    fn output_is_limited() {
        let mut pid = Pid::new(100.0, 0.0, 0.0, 1.0, 0.0);
        assert_eq!(pid.update(5.0, 0.01), 1.0);
        assert_eq!(pid.update(-5.0, 0.01), -1.0);
    }

    #[test]
    fn integrator_winds_up_bounded() {
        let mut pid = Pid::new(0.0, 1.0, 0.0, 10.0, 0.5);
        for _ in 0..1_000 {
            pid.update(1.0, 0.01);
        }
        assert!(pid.update(1.0, 0.01) <= 0.5 + 1e-9);
    }

    #[test]
    fn derivative_opposes_rapid_change() {
        let mut pid = Pid::new(0.0, 0.0, 1.0, 500.0, 0.0);
        pid.update(0.0, 0.01);
        let out = pid.update(1.0, 0.01);
        assert!(out > 50.0, "d-term reacts to the step: {out}");
    }

    #[test]
    fn reset_clears_state() {
        let mut pid = Pid::new(0.0, 1.0, 1.0, 10.0, 5.0);
        pid.update(1.0, 0.1);
        pid.reset();
        assert_eq!(pid.update(0.0, 0.1), 0.0);
    }

    #[test]
    fn zero_dt_is_safe() {
        let mut pid = Pid::new(1.0, 0.0, 0.0, 1.0, 0.0);
        assert_eq!(pid.update(1.0, 0.0), 0.0);
    }
}
