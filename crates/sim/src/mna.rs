//! Modified-nodal-analysis bookkeeping shared by the DC and AC engines.
//!
//! The unknown vector is `[v_1 … v_{N-1}, i_V1 … i_VM]`: every non-ground
//! node voltage followed by one branch current per independent voltage
//! source. [`MnaIndex`] maps circuit entities to vector positions;
//! [`mos_stamp`] evaluates a MOSFET and its exact partial derivatives with
//! respect to the four terminal voltages (handling polarity and mode
//! reversal), which is what both the Newton Jacobian and the AC admittance
//! matrix stamp.

use oasys_mos::{Mosfet, OperatingPoint};
use oasys_netlist::{Circuit, Element, NodeId};

/// Maps nodes and voltage-source branches to unknown-vector indices.
///
/// # Examples
///
/// ```
/// use oasys_netlist::{Circuit, SourceValue};
/// use oasys_sim::mna::MnaIndex;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut c = Circuit::new("t");
/// let a = c.node("a");
/// c.add_vsource("V1", a, c.ground(), SourceValue::dc(1.0))?;
/// let index = MnaIndex::new(&c);
/// assert_eq!(index.dim(), 2); // one node voltage + one branch current
/// assert_eq!(index.node_var(a), Some(0));
/// assert_eq!(index.node_var(c.ground()), None);
/// assert_eq!(index.branch_var(0), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct MnaIndex {
    node_count: usize,
    vsource_names: Vec<String>,
}

impl MnaIndex {
    /// Builds the index for a circuit.
    #[must_use]
    pub fn new(circuit: &Circuit) -> Self {
        let vsource_names = circuit.vsources().map(|v| v.name.clone()).collect();
        Self {
            node_count: circuit.node_count(),
            vsource_names,
        }
    }

    /// Total number of unknowns.
    #[must_use]
    pub fn dim(&self) -> usize {
        (self.node_count - 1) + self.vsource_names.len()
    }

    /// Unknown index of a node voltage, or `None` for ground.
    #[must_use]
    pub fn node_var(&self, node: NodeId) -> Option<usize> {
        if node.is_ground() {
            None
        } else {
            Some(node.index() - 1)
        }
    }

    /// Unknown index of the `k`-th voltage source's branch current
    /// (in circuit insertion order).
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    #[must_use]
    pub fn branch_var(&self, k: usize) -> usize {
        assert!(k < self.vsource_names.len(), "no voltage source #{k}");
        (self.node_count - 1) + k
    }

    /// Number of voltage sources (branch unknowns).
    #[must_use]
    pub fn vsource_count(&self) -> usize {
        self.vsource_names.len()
    }

    /// Name of the `k`-th voltage source.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    #[must_use]
    pub fn vsource_name(&self, k: usize) -> &str {
        &self.vsource_names[k]
    }

    /// Index of a voltage source's branch unknown by name.
    #[must_use]
    pub fn branch_var_by_name(&self, name: &str) -> Option<usize> {
        self.vsource_names
            .iter()
            .position(|n| n == name)
            .map(|k| self.branch_var(k))
    }
}

/// A MOSFET evaluated at actual terminal voltages: drain current plus its
/// exact partial derivatives with respect to each terminal voltage.
///
/// Sign conventions: `id` is the current flowing *into* the drain
/// terminal. The four derivatives sum to zero (shifting all terminals
/// together changes nothing).
#[derive(Clone, Copy, Debug)]
pub struct MosStamp {
    /// Drain terminal current, amperes.
    pub id: f64,
    /// `∂I_D/∂V_d`.
    pub d_dvd: f64,
    /// `∂I_D/∂V_g`.
    pub d_dvg: f64,
    /// `∂I_D/∂V_s`.
    pub d_dvs: f64,
    /// `∂I_D/∂V_b`.
    pub d_dvb: f64,
    /// The underlying bias point (for capacitances and reporting).
    pub op: OperatingPoint,
}

/// Evaluates `mosfet` at absolute terminal potentials and returns the
/// current and Jacobian entries.
#[must_use]
pub fn mos_stamp(mosfet: &Mosfet, vd: f64, vg: f64, vs: f64, vb: f64) -> MosStamp {
    let op = mosfet.operating_point(vg - vs, vd - vs, vs - vb);
    let (gm, gds, gmb) = (op.gm(), op.gds(), op.gmb());
    let (d_dvd, d_dvg, d_dvs, d_dvb) = if op.is_reversed() {
        // Drain and source have exchanged roles; see the derivation in the
        // DC engine docs: derivatives transform as below.
        (gm + gds + gmb, -gm, -gds, -gmb)
    } else {
        (gds, gm, -(gm + gds + gmb), gmb)
    };
    MosStamp {
        id: op.id(),
        d_dvd,
        d_dvg,
        d_dvs,
        d_dvb,
        op,
    }
}

/// The MOSFET instances of a circuit, in element order.
pub(crate) fn mos_instances(
    circuit: &Circuit,
) -> impl Iterator<Item = &oasys_netlist::MosInstance> + '_ {
    circuit.elements().iter().filter_map(|e| match e {
        Element::Mos(m) => Some(m),
        _ => None,
    })
}

/// Convenience: iterate MOSFET instances of a circuit paired with their
/// bound device models.
pub fn bound_mosfets<'c>(
    circuit: &'c Circuit,
    process: &'c oasys_process::Process,
) -> impl Iterator<Item = (&'c oasys_netlist::MosInstance, Mosfet)> + 'c {
    mos_instances(circuit).map(move |m| (m, crate::mismatch::bind(m, process)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasys_mos::Geometry;
    use oasys_process::{builtin, Polarity};

    fn nmos() -> Mosfet {
        Mosfet::new(
            Polarity::Nmos,
            Geometry::new_um(50.0, 5.0).unwrap(),
            &builtin::cmos_5um(),
        )
    }

    fn pmos() -> Mosfet {
        Mosfet::new(
            Polarity::Pmos,
            Geometry::new_um(50.0, 5.0).unwrap(),
            &builtin::cmos_5um(),
        )
    }

    fn check_derivatives(m: &Mosfet, vd: f64, vg: f64, vs: f64, vb: f64) {
        let s = mos_stamp(m, vd, vg, vs, vb);
        let h = 1e-7;
        let num = |fd: &dyn Fn(f64) -> f64| (fd(h) - fd(-h)) / (2.0 * h);
        let dd = num(&|e| mos_stamp(m, vd + e, vg, vs, vb).id);
        let dg = num(&|e| mos_stamp(m, vd, vg + e, vs, vb).id);
        let ds = num(&|e| mos_stamp(m, vd, vg, vs + e, vb).id);
        let db = num(&|e| mos_stamp(m, vd, vg, vs, vb + e).id);
        let tol = 1e-4
            * [dd, dg, ds, db]
                .iter()
                .map(|x| x.abs())
                .fold(1e-9, f64::max);
        assert!((s.d_dvd - dd).abs() < tol, "d/dvd {} vs {dd}", s.d_dvd);
        assert!((s.d_dvg - dg).abs() < tol, "d/dvg {} vs {dg}", s.d_dvg);
        assert!((s.d_dvs - ds).abs() < tol, "d/dvs {} vs {ds}", s.d_dvs);
        assert!((s.d_dvb - db).abs() < tol, "d/dvb {} vs {db}", s.d_dvb);
        // Derivatives sum to ~0 (translation invariance).
        assert!(
            (s.d_dvd + s.d_dvg + s.d_dvs + s.d_dvb).abs() < tol,
            "derivative sum not zero"
        );
    }

    #[test]
    fn nmos_saturation_derivatives() {
        check_derivatives(&nmos(), 4.0, 2.0, 0.0, 0.0);
    }

    #[test]
    fn nmos_triode_derivatives() {
        check_derivatives(&nmos(), 0.3, 2.5, 0.0, 0.0);
    }

    #[test]
    fn nmos_with_body_bias_derivatives() {
        check_derivatives(&nmos(), 4.0, 3.0, 1.0, 0.0);
    }

    #[test]
    fn nmos_reversed_derivatives() {
        // Drain below source.
        check_derivatives(&nmos(), 0.0, 2.5, 1.0, -1.0);
    }

    #[test]
    fn pmos_derivatives() {
        check_derivatives(&pmos(), 0.0, 2.0, 5.0, 5.0);
        check_derivatives(&pmos(), 4.5, 2.0, 5.0, 5.0); // triode
    }

    #[test]
    fn pmos_reversed_derivatives() {
        check_derivatives(&pmos(), 5.0, 2.0, 4.0, 5.0);
    }

    #[test]
    fn index_layout() {
        use oasys_netlist::SourceValue;
        let mut c = Circuit::new("t");
        let a = c.node("a");
        let b = c.node("b");
        c.add_vsource("V1", a, c.ground(), SourceValue::dc(1.0))
            .unwrap();
        c.add_vsource("V2", b, c.ground(), SourceValue::dc(2.0))
            .unwrap();
        let idx = MnaIndex::new(&c);
        assert_eq!(idx.dim(), 4);
        assert_eq!(idx.node_var(a), Some(0));
        assert_eq!(idx.node_var(b), Some(1));
        assert_eq!(idx.branch_var(0), 2);
        assert_eq!(idx.branch_var(1), 3);
        assert_eq!(idx.vsource_name(1), "V2");
        assert_eq!(idx.branch_var_by_name("V2"), Some(3));
        assert_eq!(idx.branch_var_by_name("nope"), None);
    }
}
