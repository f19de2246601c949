//! DENM event types: `causeCode` / `subCauseCode` pairs.
//!
//! Reproduces Table I of the paper (itself an excerpt of Table 10 in
//! ETSI EN 302 637-3): hazardous-location codes 9 and 10, collision risk 97
//! and dangerous situation 99, plus the stationary-vehicle code 94 discussed
//! in §II-C, and the remaining standard direct cause codes with raw
//! sub-causes.
//!
//! The collision-avoidance use-case uses two of these:
//!
//! * **code 10** (*hazardous location — obstacle on the road*) when the
//!   road-side camera first sees a road user in the region of interest, and
//! * **code 97** (*collision risk*) when the edge node determines a
//!   collision is imminent and the vehicle must emergency-brake.

use uper::{BitReader, BitWriter, Codec, Enumerated};

/// Sub-causes of cause code 97 — *Collision Risk* (Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CollisionRiskSubCause {
    /// 0 — unavailable.
    Unavailable,
    /// 1 — longitudinal collision risk.
    LongitudinalCollisionRisk,
    /// 2 — crossing collision risk (the blind-corner intersection case).
    CrossingCollisionRisk,
    /// 3 — lateral collision risk.
    LateralCollisionRisk,
    /// 4 — collision risk involving a vulnerable road user.
    VulnerableRoadUser,
}

impl Enumerated for CollisionRiskSubCause {
    const NAME: &'static str = "CollisionRiskSubCause";
    const ALL: &'static [Self] = &[
        Self::Unavailable,
        Self::LongitudinalCollisionRisk,
        Self::CrossingCollisionRisk,
        Self::LateralCollisionRisk,
        Self::VulnerableRoadUser,
    ];
}

/// Sub-causes of cause code 99 — *Dangerous Situation* (Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DangerousSituationSubCause {
    /// 0 — unavailable.
    Unavailable,
    /// 1 — emergency electronic brake lights.
    EmergencyElectronicBrakeLights,
    /// 2 — pre-crash system activated.
    PreCrashSystemActivated,
    /// 3 — ESP (Electronic Stability Program) activated.
    EspActivated,
    /// 4 — ABS (Anti-lock braking system) activated.
    AbsActivated,
    /// 5 — AEB (Automatic Emergency Braking) activated.
    AebActivated,
    /// 6 — brake warning activated.
    BrakeWarningActivated,
    /// 7 — collision risk warning activated.
    CollisionRiskWarningActivated,
}

impl Enumerated for DangerousSituationSubCause {
    const NAME: &'static str = "DangerousSituationSubCause";
    const ALL: &'static [Self] = &[
        Self::Unavailable,
        Self::EmergencyElectronicBrakeLights,
        Self::PreCrashSystemActivated,
        Self::EspActivated,
        Self::AbsActivated,
        Self::AebActivated,
        Self::BrakeWarningActivated,
        Self::CollisionRiskWarningActivated,
    ];
}

/// Sub-causes of cause code 94 — *Stationary Vehicle* (§II-C of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StationaryVehicleSubCause {
    /// 0 — unavailable.
    Unavailable,
    /// 1 — human problem.
    HumanProblem,
    /// 2 — vehicle breakdown.
    VehicleBreakdown,
    /// 3 — post crash.
    PostCrash,
    /// 4 — public transport stop.
    PublicTransportStop,
    /// 5 — carrying dangerous goods.
    CarryingDangerousGoods,
}

impl Enumerated for StationaryVehicleSubCause {
    const NAME: &'static str = "StationaryVehicleSubCause";
    const ALL: &'static [Self] = &[
        Self::Unavailable,
        Self::HumanProblem,
        Self::VehicleBreakdown,
        Self::PostCrash,
        Self::PublicTransportStop,
        Self::CarryingDangerousGoods,
    ];
}

/// The `eventType` of a DENM Situation container.
///
/// Typed variants cover the rows of the paper's Table I (plus code 94 from
/// the running text); every other standard code is carried through
/// [`CauseCode::Other`] without loss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CauseCode {
    /// Code 9 — hazardous location, surface condition. Sub-causes 1–9 are
    /// defined externally (TISA TAWG11071), so the raw code is kept.
    HazardousLocationSurfaceCondition(u8),
    /// Code 10 — hazardous location, obstacle on the road. Sub-causes 1–7
    /// defined externally; raw code kept.
    HazardousLocationObstacleOnTheRoad(u8),
    /// Code 94 — stationary vehicle.
    StationaryVehicle(StationaryVehicleSubCause),
    /// Code 97 — collision risk.
    CollisionRisk(CollisionRiskSubCause),
    /// Code 99 — dangerous situation.
    DangerousSituation(DangerousSituationSubCause),
    /// Any other `(causeCode, subCauseCode)` pair.
    Other {
        /// Direct cause code (0..=255).
        cause: u8,
        /// Sub-cause code (0..=255).
        sub_cause: u8,
    },
}

impl CauseCode {
    /// Direct cause code on the wire.
    pub fn cause_code(&self) -> u8 {
        match self {
            CauseCode::HazardousLocationSurfaceCondition(_) => 9,
            CauseCode::HazardousLocationObstacleOnTheRoad(_) => 10,
            CauseCode::StationaryVehicle(_) => 94,
            CauseCode::CollisionRisk(_) => 97,
            CauseCode::DangerousSituation(_) => 99,
            CauseCode::Other { cause, .. } => *cause,
        }
    }

    /// Sub-cause code on the wire.
    pub fn sub_cause_code(&self) -> u8 {
        match self {
            CauseCode::HazardousLocationSurfaceCondition(sc) => *sc,
            CauseCode::HazardousLocationObstacleOnTheRoad(sc) => *sc,
            CauseCode::StationaryVehicle(sc) => sc.index() as u8,
            CauseCode::CollisionRisk(sc) => sc.index() as u8,
            CauseCode::DangerousSituation(sc) => sc.index() as u8,
            CauseCode::Other { sub_cause, .. } => *sub_cause,
        }
    }

    /// Rebuilds a cause code from its two wire bytes.
    ///
    /// Unknown pairs are preserved via [`CauseCode::Other`]; pairs whose
    /// direct code is typed but whose sub-cause is out of the defined range
    /// are also preserved as `Other` (liberal reception, like OpenC2X).
    pub fn from_codes(cause: u8, sub_cause: u8) -> Self {
        match cause {
            9 => CauseCode::HazardousLocationSurfaceCondition(sub_cause),
            10 => CauseCode::HazardousLocationObstacleOnTheRoad(sub_cause),
            94 => StationaryVehicleSubCause::from_index(sub_cause.into())
                .map(CauseCode::StationaryVehicle)
                .unwrap_or(CauseCode::Other { cause, sub_cause }),
            97 => CollisionRiskSubCause::from_index(sub_cause.into())
                .map(CauseCode::CollisionRisk)
                .unwrap_or(CauseCode::Other { cause, sub_cause }),
            99 => DangerousSituationSubCause::from_index(sub_cause.into())
                .map(CauseCode::DangerousSituation)
                .unwrap_or(CauseCode::Other { cause, sub_cause }),
            _ => CauseCode::Other { cause, sub_cause },
        }
    }

    /// Description of the direct cause, as in Table I / EN 302 637-3.
    pub fn description(&self) -> &'static str {
        match self.cause_code() {
            0 => "Reserved",
            1 => "Traffic condition",
            2 => "Accident",
            3 => "Roadworks",
            6 => "Adverse weather condition - Adhesion",
            9 => "Hazardous location - Surface condition",
            10 => "Hazardous location - Obstacle on the road",
            11 => "Hazardous location - Animal on the road",
            12 => "Human presence on the road",
            14 => "Wrong way driving",
            15 => "Rescue and recovery work in progress",
            17 => "Adverse weather condition - Extreme weather condition",
            18 => "Adverse weather condition - Visibility",
            19 => "Adverse weather condition - Precipitation",
            26 => "Slow vehicle",
            27 => "Dangerous end of queue",
            91 => "Vehicle breakdown",
            92 => "Post crash",
            93 => "Human problem",
            94 => "Stationary vehicle",
            95 => "Emergency vehicle approaching",
            96 => "Hazardous location - Dangerous curve",
            97 => "Collision risk",
            98 => "Signal violation",
            99 => "Dangerous situation",
            _ => "Unknown cause",
        }
    }

    /// Whether this event type should trigger an emergency braking action
    /// at the receiving vehicle in the collision-avoidance application.
    pub fn requires_emergency_brake(&self) -> bool {
        matches!(
            self,
            CauseCode::CollisionRisk(_)
                | CauseCode::DangerousSituation(
                    DangerousSituationSubCause::AebActivated
                        | DangerousSituationSubCause::PreCrashSystemActivated
                )
        )
    }
}

impl std::fmt::Display for CauseCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ({}/{})",
            self.description(),
            self.cause_code(),
            self.sub_cause_code()
        )
    }
}

impl Codec for CauseCode {
    fn encode(&self, w: &mut BitWriter) -> uper::Result<()> {
        w.write_constrained_u64(u64::from(self.cause_code()), 0, 255)?;
        w.write_constrained_u64(u64::from(self.sub_cause_code()), 0, 255)
    }
    fn decode(r: &mut BitReader<'_>) -> uper::Result<Self> {
        let cause = r.read_constrained_u64(0, 255)? as u8;
        let sub_cause = r.read_constrained_u64(0, 255)? as u8;
        Ok(Self::from_codes(cause, sub_cause))
    }
}

/// Every `(cause, sub_cause, sub-cause description)` row of the paper's
/// Table I, in print order. Used by `its_testbed::experiments::table1` to
/// emit the table and by tests to pin the values.
pub const TABLE_I_ROWS: &[(u8, u8, &str)] = &[
    (9, 0, "Unavailable"),
    (
        9,
        1,
        "As specified in tec109 of clause 9.18 in TISA TAWG11071",
    ),
    (10, 0, "Unavailable"),
    (
        10,
        1,
        "As specified in tec110 of clause 9.19 in TISA TAWG11071",
    ),
    (97, 0, "Unavailable"),
    (97, 1, "Longitudinal collision risk"),
    (97, 2, "Crossing collision risk"),
    (97, 3, "Lateral collision risk"),
    (97, 4, "Collision risk involving vulnerable road-user"),
    (99, 0, "Unavailable"),
    (99, 1, "Emergency electronic brake lights"),
    (99, 2, "Pre-crash system activated"),
    (99, 3, "ESP(Electronic Stability Program) activated"),
    (99, 4, "ABS (Anti-lock braking system) activated"),
    (99, 5, "AEB (Automatic Emergency braking) activated"),
    (99, 6, "Brake warning activated"),
    (99, 7, "Collision risk warning activated"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn table_i_codes_roundtrip() {
        for &(cause, sub, _) in TABLE_I_ROWS {
            let cc = CauseCode::from_codes(cause, sub);
            assert_eq!(cc.cause_code(), cause);
            assert_eq!(cc.sub_cause_code(), sub);
            let bytes = uper::encode(&cc).unwrap();
            assert_eq!(bytes.len(), 2);
            assert_eq!(uper::decode::<CauseCode>(&bytes).unwrap(), cc);
        }
    }

    #[test]
    fn collision_risk_descriptions_match_table_i() {
        assert_eq!(
            CauseCode::CollisionRisk(CollisionRiskSubCause::VulnerableRoadUser).description(),
            "Collision risk"
        );
    }

    #[test]
    fn section_ii_c_stationary_vehicle_examples() {
        // "a causeCode of 94; a subCauseCode of 1 would indicate a human
        //  problem and 2 a vehicle breakdown"
        let human = CauseCode::from_codes(94, 1);
        assert_eq!(
            human,
            CauseCode::StationaryVehicle(StationaryVehicleSubCause::HumanProblem)
        );
        let breakdown = CauseCode::from_codes(94, 2);
        assert_eq!(
            breakdown,
            CauseCode::StationaryVehicle(StationaryVehicleSubCause::VehicleBreakdown)
        );
    }

    #[test]
    fn use_case_codes_10_and_97() {
        // §II-D: code 10 warns of an obstacle; code 97 warns of imminent
        // collision, which triggers the emergency brake.
        let obstacle = CauseCode::HazardousLocationObstacleOnTheRoad(0);
        assert_eq!(obstacle.cause_code(), 10);
        assert!(!obstacle.requires_emergency_brake());

        let risk = CauseCode::CollisionRisk(CollisionRiskSubCause::CrossingCollisionRisk);
        assert_eq!(risk.cause_code(), 97);
        assert!(risk.requires_emergency_brake());
    }

    #[test]
    fn unknown_subcause_of_typed_code_preserved_as_other() {
        let cc = CauseCode::from_codes(97, 200);
        assert_eq!(
            cc,
            CauseCode::Other {
                cause: 97,
                sub_cause: 200
            }
        );
        assert_eq!(cc.cause_code(), 97);
        assert_eq!(cc.sub_cause_code(), 200);
    }

    #[test]
    fn display_includes_codes() {
        let cc = CauseCode::CollisionRisk(CollisionRiskSubCause::CrossingCollisionRisk);
        assert_eq!(cc.to_string(), "Collision risk (97/2)");
    }

    proptest! {
        #[test]
        fn any_code_pair_roundtrips(cause in any::<u8>(), sub in any::<u8>()) {
            let cc = CauseCode::from_codes(cause, sub);
            prop_assert_eq!(cc.cause_code(), cause);
            prop_assert_eq!(cc.sub_cause_code(), sub);
            let bytes = uper::encode(&cc).unwrap();
            prop_assert_eq!(uper::decode::<CauseCode>(&bytes).unwrap(), cc);
        }
    }
}
