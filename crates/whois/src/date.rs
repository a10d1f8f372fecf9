//! A minimal calendar date with the arithmetic the analytics need (day
//! numbers for active-time spans, year extraction for Figure 1).

use std::error::Error;
use std::fmt;
use std::str::FromStr;

/// A calendar date (proleptic Gregorian).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Date {
    /// Calendar year, e.g. 2017.
    pub year: i32,
    /// Month 1–12.
    pub month: u8,
    /// Day of month 1–31.
    pub day: u8,
}

impl Date {
    /// Creates a date, validating month and day ranges.
    ///
    /// # Errors
    ///
    /// Returns [`ParseDateError`] if the month or day is out of range
    /// (including month-specific day counts and leap years).
    pub fn new(year: i32, month: u8, day: u8) -> Result<Self, ParseDateError> {
        if !(1..=12).contains(&month) {
            return Err(ParseDateError::BadMonth(month));
        }
        if day < 1 || day > days_in_month(year, month) {
            return Err(ParseDateError::BadDay(day));
        }
        Ok(Date { year, month, day })
    }

    /// Days since the Unix epoch (1970-01-01); negative before it.
    ///
    /// Uses the civil-from-days algorithm (Hinnant), exact over the full
    /// Gregorian range used here.
    pub fn day_number(self) -> i64 {
        let y = if self.month <= 2 {
            self.year - 1
        } else {
            self.year
        } as i64;
        let era = if y >= 0 { y } else { y - 399 } / 400;
        let yoe = y - era * 400;
        let mp = (self.month as i64 + 9) % 12;
        let doy = (153 * mp + 2) / 5 + self.day as i64 - 1;
        let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
        era * 146_097 + doe - 719_468
    }

    /// Builds a date back from a day number (inverse of [`Date::day_number`]).
    pub fn from_day_number(days: i64) -> Self {
        let z = days + 719_468;
        let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
        let doe = z - era * 146_097;
        let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
        let y = yoe + era * 400;
        let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
        let mp = (5 * doy + 2) / 153;
        let day = (doy - (153 * mp + 2) / 5 + 1) as u8;
        let month = if mp < 10 { mp + 3 } else { mp - 9 } as u8;
        let year = if month <= 2 { y + 1 } else { y } as i32;
        Date { year, month, day }
    }

    /// Days between `self` and `other` (positive when `other` is later).
    pub fn days_until(self, other: Date) -> i64 {
        other.day_number() - self.day_number()
    }

    /// The date `n` days after `self` (`n` may be negative).
    pub fn plus_days(self, n: i64) -> Self {
        Self::from_day_number(self.day_number() + n)
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04}-{:02}-{:02}", self.year, self.month, self.day)
    }
}

/// Errors from parsing or constructing a [`Date`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ParseDateError {
    /// Input did not match any supported format.
    Unrecognized(String),
    /// Month outside 1–12.
    BadMonth(u8),
    /// Day outside the month's range.
    BadDay(u8),
}

impl fmt::Display for ParseDateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseDateError::Unrecognized(s) => write!(f, "unrecognized date {s:?}"),
            ParseDateError::BadMonth(m) => write!(f, "month {m} out of range"),
            ParseDateError::BadDay(d) => write!(f, "day {d} out of range"),
        }
    }
}

impl Error for ParseDateError {}

fn days_in_month(year: i32, month: u8) -> u8 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 if is_leap(year) => 29,
        2 => 28,
        _ => 0,
    }
}

fn is_leap(year: i32) -> bool {
    (year % 4 == 0 && year % 100 != 0) || year % 400 == 0
}

fn month_from_name(name: &str) -> Option<u8> {
    const NAMES: [&str; 12] = [
        "jan", "feb", "mar", "apr", "may", "jun", "jul", "aug", "sep", "oct", "nov", "dec",
    ];
    let lower = name.to_ascii_lowercase();
    NAMES
        .iter()
        .position(|&m| lower.starts_with(m))
        .map(|i| i as u8 + 1)
}

impl FromStr for Date {
    type Err = ParseDateError;

    /// Parses the date formats WHOIS servers actually emit:
    ///
    /// * `2017-09-21`, `2017/09/21`, `2017.09.21` (optionally followed by a
    ///   time and timezone, which are ignored)
    /// * `21-Sep-2017`
    /// * `2017. 09. 21.` (KRNIC style)
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseDateError::Unrecognized(s.to_string());
        // KRNIC writes "2017. 09. 21." — join the dot-space separators
        // before splitting off any time component.
        let joined = s.trim().replace(". ", ".");
        let head = joined.split(['T', ' ']).next().ok_or_else(err)?;
        let cleaned = head.trim_end_matches('.');
        let parts: Vec<&str> = cleaned
            .split(['-', '/', '.'])
            .map(str::trim)
            .filter(|p| !p.is_empty())
            .collect();
        if parts.len() != 3 {
            return Err(err());
        }
        // Formats: Y-M-D (year first) or D-Mon-Y.
        if let Ok(year) = parts[0].parse::<i32>() {
            if parts[0].len() == 4 {
                let month: u8 = parts[1].parse().map_err(|_| err())?;
                let day: u8 = parts[2].parse().map_err(|_| err())?;
                return Date::new(year, month, day);
            }
        }
        if let Some(month) = month_from_name(parts[1]) {
            let day: u8 = parts[0].parse().map_err(|_| err())?;
            let year: i32 = parts[2].parse().map_err(|_| err())?;
            return Date::new(year, month, day);
        }
        Err(err())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_common_formats() {
        let expected = Date::new(2017, 9, 21).unwrap();
        for s in [
            "2017-09-21",
            "2017/09/21",
            "2017.09.21",
            "2017-09-21T04:00:00Z",
            "2017-09-21 04:00:00",
            "21-Sep-2017",
            "21-sep-2017",
            "2017. 09. 21.",
        ] {
            assert_eq!(s.parse::<Date>().unwrap(), expected, "{s}");
        }
    }

    #[test]
    fn rejects_nonsense() {
        for s in ["", "yesterday", "2017-13-01", "2017-02-30", "21"] {
            assert!(s.parse::<Date>().is_err(), "{s}");
        }
    }

    #[test]
    fn day_number_epoch() {
        assert_eq!(Date::new(1970, 1, 1).unwrap().day_number(), 0);
        assert_eq!(Date::new(1970, 1, 2).unwrap().day_number(), 1);
        assert_eq!(Date::new(1969, 12, 31).unwrap().day_number(), -1);
        // Known value: 2000-03-01 is day 11017.
        assert_eq!(Date::new(2000, 3, 1).unwrap().day_number(), 11_017);
    }

    #[test]
    fn day_number_roundtrip() {
        for &(y, m, d) in &[(1970, 1, 1), (2000, 2, 29), (2017, 9, 21), (1999, 12, 31)] {
            let date = Date::new(y, m, d).unwrap();
            assert_eq!(Date::from_day_number(date.day_number()), date);
        }
    }

    #[test]
    fn leap_year_rules() {
        assert!(Date::new(2000, 2, 29).is_ok()); // divisible by 400
        assert!(Date::new(1900, 2, 29).is_err()); // divisible by 100 only
        assert!(Date::new(2016, 2, 29).is_ok());
        assert!(Date::new(2017, 2, 29).is_err());
    }

    #[test]
    fn spans_and_arithmetic() {
        let a = Date::new(2017, 9, 21).unwrap();
        let b = Date::new(2017, 10, 5).unwrap();
        assert_eq!(a.days_until(b), 14);
        assert_eq!(b.days_until(a), -14);
        assert_eq!(a.plus_days(14), b);
    }

    #[test]
    fn display_is_iso() {
        assert_eq!(Date::new(2017, 3, 4).unwrap().to_string(), "2017-03-04");
    }
}
