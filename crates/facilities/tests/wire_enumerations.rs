//! Every positional enumeration of the CAM, DENM and CPM against its
//! `Enumerated` table: the table lists every variant once, in
//! declaration order, and `ALL[i]` is wire index `i` both ways.

use facilities::cpm::ObjectClass;
use its_messages::cam::{DriveDirection, VehicleRole};
use its_messages::cause_codes::{
    CollisionRiskSubCause, DangerousSituationSubCause, StationaryVehicleSubCause,
};
use its_messages::common::{RelevanceDistance, RelevanceTrafficDirection};
use its_messages::denm::{RoadType, StationarySince, Termination};
use std::fmt::Debug;
use uper::{BitReader, Enumerated};

/// Checks one table. `position` is a variant's declaration position
/// (`v as usize`: these enums have no fields and no explicit
/// discriminants) and `last` the variant declared last, so a table that
/// skips, repeats or reorders a variant fails. Each `ALL[i]` then
/// encodes alone as index `i` over `ALL.len()` values and decodes back,
/// and index `ALL.len()` names no variant.
fn assert_table<T: Enumerated + Debug>(last: T, position: fn(T) -> usize) {
    let n = T::ALL.len();
    assert_eq!(n, position(last) + 1, "{} lists every variant", T::NAME);
    for (i, &v) in T::ALL.iter().enumerate() {
        assert_eq!(position(v), i, "{}::ALL[{i}] is {v:?}", T::NAME);
        assert_eq!(v.index(), i as u64);
        let bytes = uper::encode(&v).unwrap();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_enumerated(n as u64).unwrap(), i as u64);
        assert_eq!(uper::decode::<T>(&bytes).unwrap(), v);
        assert_eq!(T::from_index(i as u64).unwrap(), v);
    }
    assert!(T::from_index(n as u64).is_err(), "{}", T::NAME);
}

#[test]
fn every_enumeration_table_is_complete_and_positional() {
    assert_table(Termination::IsNegation, |v| v as usize);
    assert_table(RoadType::NonUrbanWithSeparation, |v| v as usize);
    assert_table(StationarySince::EqualOrGreater15Minutes, |v| v as usize);
    assert_table(DriveDirection::Unavailable, |v| v as usize);
    assert_table(VehicleRole::SafetyCar, |v| v as usize);
    assert_table(RelevanceDistance::Over10km, |v| v as usize);
    assert_table(RelevanceTrafficDirection::OppositeTraffic, |v| v as usize);
    assert_table(ObjectClass::Obstacle, |v| v as usize);
    assert_table(CollisionRiskSubCause::VulnerableRoadUser, |v| v as usize);
    assert_table(
        DangerousSituationSubCause::CollisionRiskWarningActivated,
        |v| v as usize,
    );
    assert_table(StationaryVehicleSubCause::CarryingDangerousGoods, |v| {
        v as usize
    });
}
