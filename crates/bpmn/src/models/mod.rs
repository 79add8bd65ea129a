//! The paper's worked process models.
//!
//! * [`healthcare_treatment`] — Fig. 1, the four-pool healthcare treatment
//!   process (GP, cardiologist, lab, radiology);
//! * [`clinical_trial`](fn@clinical_trial) — Fig. 2, the physician's part of a clinical trial;
//! * [`appendix`] — the four micro-processes of Appendix A (Figs. 7–10).
//!
//! Node and task names follow the paper; where the paper's figure is only
//! described in prose, the concretization choices are documented inline and
//! cross-checked against the audit trail of Fig. 4 and the transition system
//! of Fig. 6 by the integration tests.

pub mod appendix;
pub mod clinical_trial;
pub mod healthcare;

pub use appendix::{fig10_message_cycle, fig7_sequence, fig8_exclusive, fig9_error};
pub use clinical_trial::clinical_trial;
pub use healthcare::healthcare_treatment;

/// Role names used by the paper's models.
pub mod roles {
    use cows::symbol::{sym, Symbol};

    pub fn gp() -> Symbol {
        sym("GP")
    }
    pub fn cardiologist() -> Symbol {
        sym("Cardiologist")
    }
    pub fn radiologist() -> Symbol {
        sym("Radiologist")
    }
    pub fn medical_lab_tech() -> Symbol {
        sym("MedicalLabTech")
    }
    pub fn physician() -> Symbol {
        sym("Physician")
    }
    pub fn medical_tech() -> Symbol {
        sym("MedicalTech")
    }
}
