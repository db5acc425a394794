//! Academic-calendar arithmetic.
//!
//! The paper models time as a sequence of semesters with `s_{i+1} = s_i + 1`
//! (§2): Fall '11 → Spring '12 → Fall '12 → … . We mirror that two-term
//! academic calendar (the evaluation dataset contains no summer sessions)
//! and give semesters a total order plus integer arithmetic.

use std::fmt;
use std::ops::{Add, Sub};
use std::str::FromStr;

use serde::{Deserialize, Serialize};

/// One of the two terms of the academic calendar.
///
/// Within a calendar year, Spring (January–May) precedes Fall
/// (September–December).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Term {
    /// The January–May term.
    Spring,
    /// The September–December term.
    Fall,
}

impl Term {
    /// The other term.
    pub fn flip(self) -> Term {
        match self {
            Term::Spring => Term::Fall,
            Term::Fall => Term::Spring,
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Spring => write!(f, "Spring"),
            Term::Fall => write!(f, "Fall"),
        }
    }
}

/// A specific semester, e.g. `Fall 2011`.
///
/// Internally a single integer index (`year * 2` for Spring, `+1` for Fall),
/// so ordering, distance, and `+ n` are plain integer operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(try_from = "String", into = "String")]
pub struct Semester {
    index: i32,
}

impl Semester {
    /// Creates the semester for the given calendar year and term.
    pub fn new(year: i32, term: Term) -> Semester {
        Semester {
            index: year * 2 + matches!(term, Term::Fall) as i32,
        }
    }

    /// Calendar year.
    pub fn year(self) -> i32 {
        self.index.div_euclid(2)
    }

    /// Term within the year.
    pub fn term(self) -> Term {
        if self.index.rem_euclid(2) == 0 {
            Term::Spring
        } else {
            Term::Fall
        }
    }

    /// The next semester (`s + 1` in the paper's notation).
    pub fn next(self) -> Semester {
        Semester {
            index: self.index + 1,
        }
    }

    /// The previous semester.
    pub fn prev(self) -> Semester {
        Semester {
            index: self.index - 1,
        }
    }

    /// Iterates the semesters `self, self+1, …, end` inclusive.
    /// Empty if `end < self`.
    pub fn through(self, end: Semester) -> impl Iterator<Item = Semester> {
        (self.index..=end.index).map(|index| Semester { index })
    }

    /// Raw monotone index; exposed for compact keying (e.g. hashing states).
    pub fn index(self) -> i32 {
        self.index
    }

    /// The semester whose [`Semester::index`] is `index`.
    pub(crate) fn from_index(index: i32) -> Semester {
        Semester { index }
    }
}

impl Add<i32> for Semester {
    type Output = Semester;

    fn add(self, n: i32) -> Semester {
        Semester {
            index: self.index + n,
        }
    }
}

impl Sub<Semester> for Semester {
    type Output = i32;

    /// Number of semester steps from `rhs` to `self`.
    fn sub(self, rhs: Semester) -> i32 {
        self.index - rhs.index
    }
}

impl fmt::Display for Semester {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.term(), self.year())
    }
}

/// Error parsing a semester string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSemesterError {
    input: String,
}

impl fmt::Display for ParseSemesterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid semester {:?} (expected e.g. \"Fall 2011\" or \"Spring '12\")",
            self.input
        )
    }
}

impl std::error::Error for ParseSemesterError {}

impl FromStr for Semester {
    type Err = ParseSemesterError;

    /// Parses `"Fall 2011"`, `"spring 2012"`, or the paper's abbreviated
    /// `"Fall '11"` (two-digit years map to 2000–2099).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseSemesterError {
            input: s.to_string(),
        };
        let mut parts = s.split_whitespace();
        let term = match parts.next().ok_or_else(err)?.to_ascii_lowercase().as_str() {
            "fall" => Term::Fall,
            "spring" => Term::Spring,
            _ => return Err(err()),
        };
        let year_str = parts.next().ok_or_else(err)?;
        if parts.next().is_some() {
            return Err(err());
        }
        let digits = year_str
            .trim_start_matches('\u{2019}')
            .trim_start_matches('\'');
        let year: i32 = digits.parse().map_err(|_| err())?;
        let year = if digits.len() == 2 { 2000 + year } else { year };
        // `Semester::new` would overflow the index for years near the
        // ends of `i32`.
        let index = year
            .checked_mul(2)
            .and_then(|index| index.checked_add(matches!(term, Term::Fall) as i32))
            .ok_or_else(err)?;
        Ok(Semester { index })
    }
}

impl TryFrom<String> for Semester {
    type Error = ParseSemesterError;

    fn try_from(s: String) -> Result<Self, Self::Error> {
        s.parse()
    }
}

impl From<Semester> for String {
    fn from(s: Semester) -> String {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_sequence_fall11_spring12_fall12() {
        let s1 = Semester::new(2011, Term::Fall);
        let s2 = s1.next();
        let s3 = s2.next();
        assert_eq!(s2, Semester::new(2012, Term::Spring));
        assert_eq!(s3, Semester::new(2012, Term::Fall));
    }

    #[test]
    fn ordering_follows_calendar() {
        let spring12 = Semester::new(2012, Term::Spring);
        let fall12 = Semester::new(2012, Term::Fall);
        let fall11 = Semester::new(2011, Term::Fall);
        assert!(fall11 < spring12);
        assert!(spring12 < fall12);
    }

    #[test]
    fn add_and_sub_are_inverse() {
        let s = Semester::new(2011, Term::Fall);
        assert_eq!((s + 5) - s, 5);
        assert_eq!(s + 0, s);
        assert_eq!((s + 5).year(), 2014);
    }

    #[test]
    fn prev_undoes_next() {
        let s = Semester::new(2013, Term::Spring);
        assert_eq!(s.next().prev(), s);
    }

    #[test]
    fn through_is_inclusive() {
        let s = Semester::new(2011, Term::Fall);
        let list: Vec<Semester> = s.through(s + 2).collect();
        assert_eq!(
            list,
            vec![
                s,
                Semester::new(2012, Term::Spring),
                Semester::new(2012, Term::Fall)
            ]
        );
        assert_eq!(s.through(s.prev()).count(), 0);
    }

    #[test]
    fn display_format() {
        assert_eq!(Semester::new(2011, Term::Fall).to_string(), "Fall 2011");
        assert_eq!(Semester::new(2012, Term::Spring).to_string(), "Spring 2012");
    }

    #[test]
    fn parse_full_and_abbreviated_years() {
        assert_eq!(
            "Fall 2011".parse::<Semester>().unwrap(),
            Semester::new(2011, Term::Fall)
        );
        assert_eq!(
            "spring 2012".parse::<Semester>().unwrap(),
            Semester::new(2012, Term::Spring)
        );
        assert_eq!(
            "Fall '11".parse::<Semester>().unwrap(),
            Semester::new(2011, Term::Fall)
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("Winter 2011".parse::<Semester>().is_err());
        assert!("Fall".parse::<Semester>().is_err());
        assert!("Fall 20x1".parse::<Semester>().is_err());
        assert!("Fall 2011 extra".parse::<Semester>().is_err());
    }

    #[test]
    fn parse_rejects_years_whose_index_overflows() {
        assert!("Fall 2000000000".parse::<Semester>().is_err());
        assert!("Spring 1073741824".parse::<Semester>().is_err());
        assert!("Fall -1073741825".parse::<Semester>().is_err());
        // The extremes of the index range still parse.
        assert_eq!(
            "Fall 1073741823".parse::<Semester>().unwrap().index(),
            i32::MAX
        );
        assert_eq!(
            "Spring -1073741824".parse::<Semester>().unwrap().index(),
            i32::MIN
        );
    }

    #[test]
    fn display_parse_roundtrip() {
        for year in [1999, 2011, 2026] {
            for term in [Term::Spring, Term::Fall] {
                let s = Semester::new(year, term);
                assert_eq!(s.to_string().parse::<Semester>().unwrap(), s);
            }
        }
    }

    #[test]
    fn term_flip() {
        assert_eq!(Term::Fall.flip(), Term::Spring);
        assert_eq!(Term::Spring.flip(), Term::Fall);
    }
}
